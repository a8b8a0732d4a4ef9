package experiment

import (
	"strings"
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/iodev"
	"paratick/internal/kvm"
	"paratick/internal/sim"
	"paratick/internal/workload"
)

// smallOpts returns quick-run options for tests.
func smallOpts() Options {
	o := DefaultOptions()
	o.Scale = 0.02
	return o
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero scale accepted")
	}
	bad = DefaultOptions()
	bad.Device = iodev.Profile{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid device accepted")
	}
	bad = DefaultOptions()
	bad.Workers = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative workers accepted")
	}
	o := DefaultOptions()
	if o.WorkerCount() < 1 {
		t.Errorf("default WorkerCount = %d, want >= 1", o.WorkerCount())
	}
	o.Workers = 3
	if o.WorkerCount() != 3 {
		t.Errorf("WorkerCount = %d, want 3", o.WorkerCount())
	}
}

func TestRunValidation(t *testing.T) {
	var o Options
	if _, err := RunScenario(o.oneVM("x", VMSpec{VCPUs: 1}), 1); err == nil {
		t.Error("scenario with no workload and no duration accepted")
	}
	s := o.oneVM("x", VMSpec{})
	s.Duration = sim.Second
	if _, err := RunScenario(s, 1); err == nil {
		t.Error("scenario with zero vCPUs accepted")
	}
}

func TestRunFixedDuration(t *testing.T) {
	var o Options
	s := o.oneVM("idle", VMSpec{Mode: core.DynticksIdle, VCPUs: 2})
	s.Duration = 100 * sim.Millisecond
	sr, err := RunScenario(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := sr.Results[0]
	if res.WallTime != 100*sim.Millisecond {
		t.Fatalf("wall time = %v", res.WallTime)
	}
	if res.Mode != "dynticks" {
		t.Fatalf("mode = %q", res.Mode)
	}
}

func TestCompareModesOnCompute(t *testing.T) {
	var o Options
	s := o.oneVM("compute", VMSpec{
		VCPUs: 1,
		Setup: func(vm *kvm.VM) error {
			vm.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(20*sim.Millisecond)))
			return nil
		},
	})
	mode := s.VMs[0].Mode
	cmp, err := compareModes(s, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline.Mode != "dynticks" || cmp.Optimized.Mode != "paratick" {
		t.Fatalf("modes: %s vs %s", cmp.Baseline.Mode, cmp.Optimized.Mode)
	}
	if cmp.ExitsDelta >= 0 {
		t.Fatalf("paratick should reduce exits, delta = %v", cmp.ExitsDelta)
	}
	if s.VMs[0].Mode != mode {
		t.Errorf("compareModes changed the caller's VM mode from %v to %v", mode, s.VMs[0].Mode)
	}
}

func TestRunFig4Small(t *testing.T) {
	fig, err := RunFig4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Comparisons) != 13 {
		t.Fatalf("fig4 has %d benchmarks, want 13", len(fig.Comparisons))
	}
	// The §6.1 headline: exits drop for every benchmark; throughput and
	// runtime never degrade materially (>2% would contradict Fig. 4).
	for _, c := range fig.Comparisons {
		if c.ExitsDelta >= 0 {
			t.Errorf("%s: exits delta %v, want negative", c.Name, c.ExitsDelta)
		}
		if c.ThroughputDelta < -0.02 {
			t.Errorf("%s: throughput regressed: %v", c.Name, c.ThroughputDelta)
		}
		if c.RuntimeDelta > 0.02 {
			t.Errorf("%s: runtime regressed: %v", c.Name, c.RuntimeDelta)
		}
	}
	if fig.Aggregate.ExitsDelta > -0.3 {
		t.Errorf("aggregate exits delta = %v, paper band is around -50%%", fig.Aggregate.ExitsDelta)
	}
	if fig.Aggregate.ThroughputDelta <= 0 {
		t.Errorf("aggregate throughput delta = %v, want positive", fig.Aggregate.ThroughputDelta)
	}
	// Rendering includes all three panels, the aggregate line, and the
	// exit-latency distribution tables for both modes.
	r := fig.Render()
	for _, want := range []string{"(a) relative VM exits", "(b) relative system throughput",
		"(c) relative execution time", "aggregate",
		"exit handling cost (dynticks baseline)", "exit handling cost (paratick)",
		"p50", "p95", "p99"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q", want)
		}
	}
	tb := RenderTable2(fig).String()
	if !strings.Contains(tb, "Table 2") {
		t.Error("table 2 title missing")
	}
}

func TestRunFig5SmallVM(t *testing.T) {
	fig, err := RunFig5Size(smallOpts(), VMSizes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Comparisons) != 13 {
		t.Fatalf("fig5 has %d benchmarks", len(fig.Comparisons))
	}
	if fig.Aggregate.ExitsDelta > -0.25 {
		t.Errorf("aggregate exits delta = %v, want strong reduction", fig.Aggregate.ExitsDelta)
	}
	if fig.Aggregate.ThroughputDelta <= 0 {
		t.Errorf("aggregate throughput delta = %v, want positive", fig.Aggregate.ThroughputDelta)
	}
	// §6.2: throughput gains exceed runtime gains (critical-path argument).
	if fig.Aggregate.ThroughputDelta < -fig.Aggregate.RuntimeDelta {
		t.Errorf("throughput gain (%v) should exceed runtime gain (%v)",
			fig.Aggregate.ThroughputDelta, -fig.Aggregate.RuntimeDelta)
	}
}

func TestVMSizesMatchPaper(t *testing.T) {
	sizes := VMSizes()
	if len(sizes) != 3 {
		t.Fatalf("sizes = %d", len(sizes))
	}
	want := []VMSize{{"small", 4, 1}, {"medium", 16, 2}, {"large", 64, 4}}
	for i, s := range sizes {
		if s != want[i] {
			t.Errorf("size %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestRunFig6Small(t *testing.T) {
	fig, err := RunFig6(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Categories) != 4 {
		t.Fatalf("fig6 has %d categories, want 4", len(fig.Categories))
	}
	byPat := map[workload.FioPattern]FioCategory{}
	for _, c := range fig.Categories {
		if len(c.Cells) != len(workload.FioBlockSizes()) {
			t.Fatalf("%v has %d cells", c.Pattern, len(c.Cells))
		}
		if c.ExitsDelta >= 0 {
			t.Errorf("%v exits delta = %v", c.Pattern, c.ExitsDelta)
		}
		if c.IOThroughputDelta <= 0 {
			t.Errorf("%v io throughput delta = %v, want positive", c.Pattern, c.IOThroughputDelta)
		}
		byPat[c.Pattern] = c
	}
	// §6.3: reads benefit more than writes.
	if byPat[workload.RandRead].IOThroughputDelta <= byPat[workload.RandWrite].IOThroughputDelta {
		t.Errorf("rndr (%v) should beat rndwr (%v)",
			byPat[workload.RandRead].IOThroughputDelta, byPat[workload.RandWrite].IOThroughputDelta)
	}
	if byPat[workload.SeqRead].IOThroughputDelta <= byPat[workload.SeqWrite].IOThroughputDelta {
		t.Error("seqr should beat seqwr")
	}
	// Runtime improvement tracks throughput for I/O (§6.3): same sign,
	// similar magnitude.
	if fig.RuntimeDelta >= 0 {
		t.Errorf("aggregate runtime delta = %v, want negative", fig.RuntimeDelta)
	}
	r := fig.Render()
	if !strings.Contains(r, "(b) relative I/O throughput") {
		t.Error("render missing panel b")
	}
	if !strings.Contains(RenderTable4(fig).String(), "Table 4") {
		t.Error("table 4 missing")
	}
}

func TestRunTable1Small(t *testing.T) {
	o := smallOpts()
	o.Scale = 0.05
	res, err := RunTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range res.Rows {
		byName[r.Workload] = r
	}
	// Idle VMs: tickless and paratick quiescent, periodic pays per tick.
	if byName["W1"].SimPeriodic == 0 {
		t.Error("W1 periodic should tick")
	}
	if byName["W1"].SimTickless > byName["W1"].SimPeriodic/10 {
		t.Errorf("W1 tickless (%d) should be ≪ periodic (%d)",
			byName["W1"].SimTickless, byName["W1"].SimPeriodic)
	}
	if byName["W1"].SimParatick != 0 {
		t.Errorf("W1 paratick = %d, want 0", byName["W1"].SimParatick)
	}
	// The §3.3 crossover: for W3, tickless is worse than periodic.
	if byName["W3"].SimTickless <= byName["W3"].SimPeriodic {
		t.Errorf("W3: tickless (%d) should exceed periodic (%d)",
			byName["W3"].SimTickless, byName["W3"].SimPeriodic)
	}
	// Paratick beats both everywhere.
	for _, w := range []string{"W1", "W2", "W3", "W4"} {
		r := byName[w]
		if r.SimParatick >= r.SimTickless && r.SimTickless > 0 {
			t.Errorf("%s: paratick (%d) not below tickless (%d)", w, r.SimParatick, r.SimTickless)
		}
		if r.SimParatick >= r.SimPeriodic {
			t.Errorf("%s: paratick (%d) not below periodic (%d)", w, r.SimParatick, r.SimPeriodic)
		}
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Error("render missing title")
	}
}

func TestIdleExitAblation(t *testing.T) {
	res, err := RunIdleExitAblation(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, keep, disarm := res.Rows[0], res.Rows[1], res.Rows[2]
	// The heuristic's point: keeping the timer armed must not cost more
	// timer exits than disarming, and both paratick variants beat dynticks.
	if keep.TimerExits > disarm.TimerExits {
		t.Errorf("keep-armed (%d timer exits) worse than disarm (%d)",
			keep.TimerExits, disarm.TimerExits)
	}
	if keep.TimerExits >= base.TimerExits {
		t.Errorf("paratick (%d) not below dynticks (%d)", keep.TimerExits, base.TimerExits)
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Error("render missing title")
	}
}

func TestFrequencyMismatchAblation(t *testing.T) {
	res, err := RunFrequencyMismatchAblation(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	noTopUp, topUp := res.Rows[0], res.Rows[1]
	// Without top-up a 1000 Hz guest on a 250 Hz host receives only ~250
	// ticks/s; with top-up it gets close to the requested rate.
	if topUp.GuestTicks < 3*noTopUp.GuestTicks {
		t.Errorf("top-up ticks (%d) should be ~4× no-top-up (%d)",
			topUp.GuestTicks, noTopUp.GuestTicks)
	}
}

func TestHaltPollAblation(t *testing.T) {
	res, err := RunHaltPollAblation(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	disabled, poll200 := res.Rows[0], res.Rows[2]
	// Polling trades cycles for latency: more busy cycles, shorter runtime.
	if poll200.BusyCycles <= disabled.BusyCycles {
		t.Errorf("polling should burn more cycles: %v vs %v",
			poll200.BusyCycles, disabled.BusyCycles)
	}
	if poll200.Runtime >= disabled.Runtime {
		t.Errorf("polling should shorten runtime: %v vs %v",
			poll200.Runtime, disabled.Runtime)
	}
}

func TestPLEAblation(t *testing.T) {
	res, err := RunPLEAblation(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	blocking, spinNoPLE, spinPLE := res.Rows[0], res.Rows[1], res.Rows[2]
	// Spinning without PLE takes no PLE exits; with PLE enabled the spin
	// loops surface as extra exits and extra host cycles.
	if spinPLE.TotalExits <= spinNoPLE.TotalExits {
		t.Errorf("PLE should add exits: %d vs %d", spinPLE.TotalExits, spinNoPLE.TotalExits)
	}
	if spinPLE.BusyCycles <= spinNoPLE.BusyCycles {
		t.Errorf("PLE should add host cycles: %v vs %v", spinPLE.BusyCycles, spinNoPLE.BusyCycles)
	}
	// Blocking sync takes HLT/IPI exits that pure spinning avoids; both
	// must complete the same work.
	if blocking.TotalExits == 0 || spinNoPLE.TotalExits == 0 {
		t.Error("degenerate ablation rows")
	}
}

func TestCrossoverSweep(t *testing.T) {
	o := smallOpts()
	o.Scale = 0.1
	res, err := RunCrossover(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(crossoverIdlePeriods()) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// §3.3: at very short idle periods periodic wins; at long ones
	// tickless wins; paratick undercuts both everywhere.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.TicklessExits <= first.PeriodicExits {
		t.Errorf("at %v idle, tickless (%d) should exceed periodic (%d)",
			first.IdlePeriod, first.TicklessExits, first.PeriodicExits)
	}
	if last.TicklessExits >= last.PeriodicExits {
		t.Errorf("at %v idle, tickless (%d) should undercut periodic (%d)",
			last.IdlePeriod, last.TicklessExits, last.PeriodicExits)
	}
	for _, p := range res.Points {
		if p.ParatickExits > p.TicklessExits || p.ParatickExits > p.PeriodicExits {
			t.Errorf("at %v idle, paratick (%d) not the minimum (periodic %d, tickless %d)",
				p.IdlePeriod, p.ParatickExits, p.PeriodicExits, p.TicklessExits)
		}
	}
	// The empirical crossover brackets the analytic 4ms threshold within
	// the sweep's resolution (one octave either side).
	if res.EmpiricalCrossover == sim.Forever {
		t.Fatal("no crossover found")
	}
	if res.EmpiricalCrossover < res.AnalyticThreshold/4 ||
		res.EmpiricalCrossover > res.AnalyticThreshold*4 {
		t.Errorf("empirical crossover %v too far from analytic threshold %v",
			res.EmpiricalCrossover, res.AnalyticThreshold)
	}
	if !strings.Contains(res.Render(), "crossover") {
		t.Error("render broken")
	}
	if len(res.Table().Rows) != len(res.Points) {
		t.Error("table rows mismatch")
	}
}

func TestConsolidation(t *testing.T) {
	o := smallOpts()
	o.Scale = 0.2
	res, err := RunConsolidation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	periodic, tickless, para := res.Rows[0], res.Rows[1], res.Rows[2]
	// The §3.3 conclusion verbatim: on a mixed consolidated fleet NEITHER
	// classic mechanism is acceptable — periodic pays on the idle VMs,
	// tickless pays on the sync/I/O VMs — while paratick undercuts both by
	// a wide margin.
	if periodic.TimerExits < 3*para.TimerExits+1000 {
		t.Errorf("periodic timer exits (%d) should dwarf paratick's (%d)",
			periodic.TimerExits, para.TimerExits)
	}
	if tickless.TimerExits < 3*para.TimerExits+1000 {
		t.Errorf("tickless timer exits (%d) should dwarf paratick's (%d)",
			tickless.TimerExits, para.TimerExits)
	}
	if para.HostOverhead >= periodic.HostOverhead || para.HostOverhead >= tickless.HostOverhead {
		t.Errorf("paratick host overhead (%v) should undercut periodic (%v) and tickless (%v)",
			para.HostOverhead, periodic.HostOverhead, tickless.HostOverhead)
	}
	// Same delivered I/O under every mode (fixed job size).
	if para.IOBytes != tickless.IOBytes || para.IOBytes == 0 {
		t.Errorf("delivered io differs: %d vs %d", para.IOBytes, tickless.IOBytes)
	}
	if !strings.Contains(res.Render(), "Consolidation") {
		t.Error("render broken")
	}
}

func TestRepeatsAveraging(t *testing.T) {
	o := smallOpts()
	o.Repeats = 2
	fig, err := RunFig4(o)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Spread == nil {
		t.Fatal("no spread with repeats")
	}
	if fig.Spread.Exits.N != 2 {
		t.Fatalf("spread N = %d", fig.Spread.Exits.N)
	}
	if !strings.Contains(fig.Render(), "repeat spread") {
		t.Error("render missing spread line")
	}
	if len(fig.Table().Rows) != 14 { // 13 benchmarks + MEAN
		t.Fatalf("table rows = %d", len(fig.Table().Rows))
	}
	bad := o
	bad.Repeats = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative repeats accepted")
	}
}

func TestRunFig5AllSizes(t *testing.T) {
	o := smallOpts()
	o.Scale = 0.01
	figs, err := RunFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("panels = %d", len(figs))
	}
	t3 := RenderTable3(figs).String()
	for _, want := range []string{"small", "medium", "large"} {
		if !strings.Contains(t3, want) {
			t.Errorf("table 3 missing %q", want)
		}
	}
}

func TestRunAllAblations(t *testing.T) {
	s, err := RunAllAblations(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"§5.2.5", "§4.1", "halt polling", "PLE"} {
		if !strings.Contains(s, want) {
			t.Errorf("combined ablations missing %q", want)
		}
	}
}

func TestFioFigureTable(t *testing.T) {
	o := smallOpts()
	o.Scale = 0.01
	fig, err := RunFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := fig.Table()
	// 4 patterns × (4 block sizes + MEAN row).
	if len(tb.Rows) != 4*5 {
		t.Fatalf("fio table rows = %d", len(tb.Rows))
	}
	if tb.CSV() == "" {
		t.Error("empty CSV")
	}
}

func TestCoalescingAblation(t *testing.T) {
	res, err := RunCoalescingAblation(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	dynPlain, paraPlain, dynCo, paraCo := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	// Coalescing reduces exits for both mechanisms.
	if dynCo.TotalExits >= dynPlain.TotalExits {
		t.Errorf("coalescing did not reduce dynticks exits: %d vs %d",
			dynCo.TotalExits, dynPlain.TotalExits)
	}
	// Paratick stays ahead on timer exits regardless.
	if paraCo.TimerExits >= dynCo.TimerExits {
		t.Errorf("paratick (%d timer exits) not below dynticks (%d) under coalescing",
			paraCo.TimerExits, dynCo.TimerExits)
	}
	_ = paraPlain
}
