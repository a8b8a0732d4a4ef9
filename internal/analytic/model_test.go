package analytic

import (
	"testing"
	"testing/quick"

	"paratick/internal/sim"
)

func specIdle16() VMSpec {
	return VMSpec{Name: "idle", VCPUs: 16, TickHz: 250, Load: 0, TIdle: sim.Forever}
}

func TestVMSpecValidate(t *testing.T) {
	good := []VMSpec{
		specIdle16(),
		{Name: "x", VCPUs: 1, TickHz: 100, Load: 1},
		{Name: "y", VCPUs: 4, TickHz: 250, Load: 0.5, TIdle: sim.Millisecond},
		{Name: "z", VCPUs: 4, TickHz: 250, Load: 0.5, SyncsPerSec: 100},
	}
	for _, v := range good {
		if err := v.Validate(); err != nil {
			t.Errorf("good spec %q rejected: %v", v.Name, err)
		}
	}
	bad := []VMSpec{
		{Name: "a", VCPUs: 0, TickHz: 250, Load: 1},
		{Name: "b", VCPUs: 4, TickHz: 0, Load: 1},
		{Name: "c", VCPUs: 4, TickHz: 250, Load: 1.5},
		{Name: "d", VCPUs: 4, TickHz: 250, Load: -0.1},
		{Name: "e", VCPUs: 4, TickHz: 250, Load: 0.5}, // idle but no TIdle/syncs
		{Name: "f", VCPUs: 4, TickHz: 250, Load: 1, SyncsPerSec: -1},
	}
	for _, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad spec %q accepted", v.Name)
		}
	}
}

func TestPeriodicExitsStrict(t *testing.T) {
	// §3.1: exits = 2 × t × n_vCPU × f_tick = 2×10×16×250 = 80 000.
	v := specIdle16()
	got := PeriodicExits(v, 10*sim.Second, StrictFormula)
	if got != 80000 {
		t.Fatalf("strict periodic exits = %v, want 80000", got)
	}
}

func TestPeriodicExitsPaperConvention(t *testing.T) {
	// Printed Table 1: W1 = 40 000.
	v := specIdle16()
	got := PeriodicExits(v, 10*sim.Second, PaperTable)
	if got != 40000 {
		t.Fatalf("paper-convention periodic exits = %v, want 40000", got)
	}
}

func TestPeriodicExitsIndependentOfLoad(t *testing.T) {
	// §3.1: periodic exit count is workload-independent.
	busy := VMSpec{Name: "busy", VCPUs: 16, TickHz: 250, Load: 1}
	idle := specIdle16()
	if PeriodicExits(busy, sim.Second, StrictFormula) != PeriodicExits(idle, sim.Second, StrictFormula) {
		t.Fatal("periodic exits should not depend on load")
	}
}

func TestTicklessExitsIdleVM(t *testing.T) {
	// A fully idle tickless VM induces zero tick-management exits.
	v := specIdle16()
	if got := TicklessExits(v, 10*sim.Second, StrictFormula); got != 0 {
		t.Fatalf("idle tickless exits = %v, want 0", got)
	}
	if got := TicklessExits(v, 10*sim.Second, PaperTable); got != 0 {
		t.Fatalf("idle tickless exits (paper) = %v, want 0", got)
	}
}

func TestTicklessExitsStrictFormula(t *testing.T) {
	// exits = 2t(L n f + (1-L) n / T_idle)
	// L=0.5, n=16, f=250, T_idle=1ms, t=10s:
	// = 2×10×(0.5×16×250 + 0.5×16/0.001) = 2×10×(2000+8000) = 200000.
	v := VMSpec{Name: "x", VCPUs: 16, TickHz: 250, Load: 0.5, TIdle: sim.Millisecond}
	got := TicklessExits(v, 10*sim.Second, StrictFormula)
	if got != 200000 {
		t.Fatalf("strict tickless exits = %v, want 200000", got)
	}
}

func TestTicklessExitsFullyBusy(t *testing.T) {
	// L=1: only active ticks remain; equals the periodic count.
	v := VMSpec{Name: "x", VCPUs: 8, TickHz: 100, Load: 1}
	if got, want := TicklessExits(v, sim.Second, StrictFormula), PeriodicExits(v, sim.Second, StrictFormula); got != want {
		t.Fatalf("busy tickless = %v, want %v", got, want)
	}
}

func TestParatickExits(t *testing.T) {
	v := VMSpec{Name: "x", VCPUs: 16, TickHz: 250, Load: 0.5, SyncsPerSec: 1000}
	// 1000 sync/s × 10 s × 5% = 500.
	if got := ParatickExits(v, 10*sim.Second, 0.05); got != 500 {
		t.Fatalf("paratick exits = %v, want 500", got)
	}
	// Clamping.
	if got := ParatickExits(v, 10*sim.Second, -1); got != 0 {
		t.Fatalf("negative fraction should clamp to 0, got %v", got)
	}
	if got := ParatickExits(v, 10*sim.Second, 2); got != 10000 {
		t.Fatalf("fraction >1 should clamp to 1, got %v", got)
	}
	// Idle VM: no exits at all.
	if got := ParatickExits(specIdle16(), 10*sim.Second, 1); got != 0 {
		t.Fatalf("idle paratick exits = %v, want 0", got)
	}
}

func TestParatickNeverExceedsTicklessProperty(t *testing.T) {
	// §4.2: "virtual scheduler ticks is guaranteed to never induce more
	// timer-related VM exits than tickless kernels."
	f := func(vcpus, hz uint8, loadRaw uint8, syncRaw uint16, frac uint8) bool {
		v := VMSpec{
			Name:        "p",
			VCPUs:       int(vcpus%64) + 1,
			TickHz:      int(hz%250) + 10,
			Load:        float64(loadRaw%101) / 100,
			SyncsPerSec: float64(syncRaw % 10000),
			TIdle:       sim.Millisecond,
		}
		para := ParatickExits(v, 10*sim.Second, float64(frac%101)/100)
		// Compare against the strict formula, which counts transitions from
		// the same source (syncs when declared, else TIdle). The printed-
		// table convention ignores TIdle entirely, so it is not comparable
		// for sync-free specs.
		strict := TicklessExits(v, 10*sim.Second, StrictFormula)
		if v.SyncsPerSec > 0 {
			// The strict formula's transition term comes from TIdle; put
			// paratick on the same footing by comparing sync-driven specs
			// against the paper convention (2 exits per sync + ticks).
			paper := TicklessExits(v, 10*sim.Second, PaperTable)
			if paper == 0 {
				return para == 0
			}
			return para <= paper
		}
		if strict == 0 {
			return para == 0
		}
		return para <= strict
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTicklessPreferableCrossover(t *testing.T) {
	// §3.3: tickless preferable iff T_idle > tick period / vCPUs-per-pCPU.
	// 250 Hz → 4ms period. 4 vCPUs per pCPU → threshold 1ms.
	if !TicklessPreferable(2*sim.Millisecond, 250, 4) {
		t.Error("2ms idle period should favor tickless")
	}
	if TicklessPreferable(500*sim.Microsecond, 250, 4) {
		t.Error("0.5ms idle period should favor periodic")
	}
	if TicklessPreferable(sim.Millisecond, 250, 4) {
		t.Error("exactly at threshold should not be 'longer than'")
	}
	// Degenerate inputs default to tickless.
	if !TicklessPreferable(sim.Millisecond, 0, 4) || !TicklessPreferable(sim.Millisecond, 250, 0) {
		t.Error("degenerate params should default to tickless")
	}
}

func TestTable1PaperConventionMatchesPrintedValues(t *testing.T) {
	rows := Table1(PaperTable)
	want := PaperTable1Values()
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		w := want[r.Workload]
		if r.Periodic != w[0] {
			t.Errorf("%s periodic = %v, paper prints %v", r.Workload, r.Periodic, w[0])
		}
		if r.Tickless != w[1] {
			t.Errorf("%s tickless = %v, paper prints %v", r.Workload, r.Tickless, w[1])
		}
	}
}

func TestTable1ParatickColumn(t *testing.T) {
	rows := Table1(PaperTable)
	for _, r := range rows {
		if r.Workload == "W1" || r.Workload == "W2" {
			if r.Paratick != 0 {
				t.Errorf("%s paratick = %v, want 0 for idle VMs", r.Workload, r.Paratick)
			}
			continue
		}
		if r.Paratick <= 0 {
			t.Errorf("%s paratick = %v, want positive", r.Workload, r.Paratick)
		}
		if r.Paratick >= r.Tickless {
			t.Errorf("%s paratick (%v) should undercut tickless (%v)", r.Workload, r.Paratick, r.Tickless)
		}
		if r.Paratick >= r.Periodic {
			t.Errorf("%s paratick (%v) should undercut periodic (%v)", r.Workload, r.Paratick, r.Periodic)
		}
	}
}

func TestTable1StrictConventionDoublesPeriodic(t *testing.T) {
	strict := Table1(StrictFormula)
	paper := Table1(PaperTable)
	for i := range strict {
		if strict[i].Periodic != 2*paper[i].Periodic {
			t.Errorf("%s: strict periodic %v != 2× paper %v",
				strict[i].Workload, strict[i].Periodic, paper[i].Periodic)
		}
	}
}

func TestTable1ShapeW3(t *testing.T) {
	// The §3.3 headline: for W3/W4 (frequent brief idling), tickless is
	// WORSE than periodic; for W1/W2 (mostly idle) it is vastly better.
	for _, conv := range []Convention{StrictFormula, PaperTable} {
		rows := Table1(conv)
		byName := map[string]Table1Row{}
		for _, r := range rows {
			byName[r.Workload] = r
		}
		if byName["W1"].Tickless >= byName["W1"].Periodic {
			t.Errorf("%v: W1 tickless should beat periodic", conv)
		}
		if byName["W3"].Tickless <= byName["W3"].Periodic {
			t.Errorf("%v: W3 tickless should be worse than periodic", conv)
		}
	}
}

func TestTable1Workloads(t *testing.T) {
	ws := Table1Workloads()
	if len(ws) != 4 {
		t.Fatalf("workload count = %d", len(ws))
	}
	if len(ws["W2"]) != 4 || len(ws["W4"]) != 4 {
		t.Error("W2/W4 should have 4 VMs")
	}
	for name, vms := range ws {
		for _, v := range vms {
			if v.VCPUs != 16 {
				t.Errorf("%s VM has %d vCPUs, want 16", name, v.VCPUs)
			}
			if v.TickHz != 250 {
				t.Errorf("%s VM tick = %d Hz, want 250", name, v.TickHz)
			}
		}
	}
}

func TestConventionString(t *testing.T) {
	if StrictFormula.String() != "strict-formula" || PaperTable.String() != "paper-table" {
		t.Error("convention names wrong")
	}
	if Convention(9).String() != "convention(9)" {
		t.Error("unknown convention name wrong")
	}
}
