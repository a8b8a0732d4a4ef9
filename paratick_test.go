package paratick

import (
	"strings"
	"testing"
	"time"
)

func TestTickModeStrings(t *testing.T) {
	if ModeDynticks.String() != "dynticks" || ModePeriodic.String() != "periodic" ||
		ModeParatick.String() != "paratick" {
		t.Error("mode names wrong")
	}
	for _, s := range []string{"periodic", "dynticks", "tickless", "paratick"} {
		if _, err := ParseTickMode(s); err != nil {
			t.Errorf("ParseTickMode(%q): %v", s, err)
		}
	}
	if _, err := ParseTickMode("bogus"); err == nil {
		t.Error("bogus mode parsed")
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{Workload: IdleWorkload(), Duration: time.Second}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Scenario{}).Validate(); err == nil {
		t.Error("empty scenario (no workload, no duration) accepted")
	}
	if err := (Scenario{Duration: -time.Second}).Validate(); err == nil {
		t.Error("negative duration accepted")
	}
	// Past the simulator's 1000 s cap: refused up front by the experiment
	// scenario's check, not run for hours.
	err := (Scenario{Workload: IdleWorkload(), Duration: 5000 * time.Hour}).Validate()
	if err == nil || !strings.Contains(err.Error(), "duration must be between 0 and") {
		t.Errorf("5000h duration: got %v, want the experiment scenario's duration error", err)
	}
	if _, err := Run(Scenario{Workload: IdleWorkload(), Duration: 5000 * time.Hour}); err == nil {
		t.Error("Run accepted a 5000h duration")
	}
}

func TestRunIdleScenario(t *testing.T) {
	rep, err := Run(Scenario{
		Mode:     ModePeriodic,
		VCPUs:    2,
		Duration: 100 * time.Millisecond,
		Workload: IdleWorkload(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != ModePeriodic {
		t.Fatalf("mode = %v", rep.Mode)
	}
	// 2 vCPUs × 25 ticks × 2 exits.
	if rep.TotalExits < 80 || rep.TotalExits > 130 {
		t.Fatalf("idle periodic exits = %d, want ~100", rep.TotalExits)
	}
	if rep.GuestTicks < 40 {
		t.Fatalf("guest ticks = %d", rep.GuestTicks)
	}
	if !strings.Contains(rep.Summary(), "VM exits") {
		t.Error("summary malformed")
	}
}

func TestRunFioScenario(t *testing.T) {
	rep, err := Run(Scenario{
		Mode:     ModeParatick,
		Workload: FioWorkload("rndr", 4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOOps != 256 { // 1 MiB / 4 KiB
		t.Fatalf("io ops = %d, want 256", rep.IOOps)
	}
	if rep.IOThroughputMBps <= 0 {
		t.Fatal("no io throughput")
	}
	if rep.VirtualTicks == 0 {
		t.Fatal("paratick run recorded no virtual ticks")
	}
	if !strings.Contains(rep.Summary(), "io") {
		t.Error("summary missing io line")
	}
}

func TestRunRejectsBadWorkloads(t *testing.T) {
	if _, err := Run(Scenario{Workload: FioWorkload("zzz", 4, 1)}); err == nil {
		t.Error("bad fio pattern accepted")
	}
	if _, err := Run(Scenario{Workload: FioWorkload("rndr", 0, 1)}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := Run(Scenario{Workload: ParsecSequential("nope")}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(Scenario{Workload: CustomWorkload("x", nil)}); err == nil {
		t.Error("nil custom setup accepted")
	}
}

func TestCompareToBaselineFio(t *testing.T) {
	cmp, err := CompareToBaseline(Scenario{Workload: FioWorkload("rndr", 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Baseline.Mode != ModeDynticks || cmp.Optimized.Mode != ModeParatick {
		t.Fatalf("modes: %v vs %v", cmp.Baseline.Mode, cmp.Optimized.Mode)
	}
	if cmp.ExitsDelta >= 0 {
		t.Errorf("exits delta = %v, want negative", cmp.ExitsDelta)
	}
	if cmp.TimerExitsDelta >= -0.5 {
		t.Errorf("timer exits delta = %v, want strong reduction", cmp.TimerExitsDelta)
	}
	if cmp.ThroughputDelta <= 0 {
		t.Errorf("throughput delta = %v, want positive", cmp.ThroughputDelta)
	}
	if cmp.RuntimeDelta >= 0 {
		t.Errorf("runtime delta = %v, want negative", cmp.RuntimeDelta)
	}
	if cmp.IOThroughputDelta <= 0 {
		t.Errorf("io throughput delta = %v, want positive", cmp.IOThroughputDelta)
	}
	s := cmp.Summary()
	for _, want := range []string{"VM exits", "system throughput", "execution time", "io throughput"} {
		if !strings.Contains(s, want) {
			t.Errorf("comparison summary missing %q:\n%s", want, s)
		}
	}
}

func TestCompareExplicitPeriodic(t *testing.T) {
	// Comparing periodic against the dynticks baseline on an idle VM:
	// periodic is far worse (§3.3 W1).
	cmp, err := CompareToBaseline(Scenario{
		Mode:     ModePeriodic,
		VCPUs:    4,
		Duration: 200 * time.Millisecond,
		Workload: IdleWorkload(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ExitsDelta <= 1 {
		t.Errorf("periodic idle should have many times the exits of dynticks, delta = %v", cmp.ExitsDelta)
	}
}

func TestParsecBenchmarksList(t *testing.T) {
	bs := ParsecBenchmarks()
	if len(bs) != 13 {
		t.Fatalf("benchmarks = %d", len(bs))
	}
	if bs[0] != "blackscholes" || bs[12] != "x264" {
		t.Fatalf("ordering: %v", bs)
	}
}

func TestParsecSequentialScenario(t *testing.T) {
	rep, err := Run(Scenario{Workload: ParsecSequentialScaled("swaptions", 0.02)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsefulCycles < 10*time.Millisecond {
		t.Fatalf("useful cycles = %v", rep.UsefulCycles)
	}
	if rep.Name != "parsec-seq/swaptions" {
		t.Fatalf("name = %q", rep.Name)
	}
}

func TestParsecParallelScenario(t *testing.T) {
	rep, err := Run(Scenario{
		VCPUs:    4,
		Workload: ParsecParallelScaled("fluidanimate", 4, 0.02),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wakeups == 0 {
		t.Fatal("parallel run recorded no wakeups")
	}
	if rep.IdleTransitions == 0 {
		t.Fatal("parallel run recorded no idle transitions")
	}
}

func TestSyncWorkloadScenario(t *testing.T) {
	rep, err := Run(Scenario{
		VCPUs:    4,
		Workload: SyncWorkload(4, 2000, 50*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wakeups < 20 {
		t.Fatalf("wakeups = %d, want rendezvous traffic", rep.Wakeups)
	}
}

func TestCustomWorkloadScenario(t *testing.T) {
	var lock *Lock
	wl := CustomWorkload("pipeline", func(b *Builder) error {
		dev, err := b.AttachDevice("d0", DeviceNVMe)
		if err != nil {
			return err
		}
		lock = b.NewLock("l")
		for i := 0; i < 2; i++ {
			i := i
			if err := b.Spawn("t", i, Sequence(
				OpCompute(2*time.Millisecond),
				OpAcquire(lock),
				OpCompute(10*time.Microsecond),
				OpRelease(lock),
				OpRead(dev, 4096, false),
				OpCompute(time.Millisecond),
			)); err != nil {
				return err
			}
		}
		return nil
	})
	rep, err := Run(Scenario{VCPUs: 2, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if rep.IOOps != 2 {
		t.Fatalf("io ops = %d, want 2", rep.IOOps)
	}
	if lock.Acquisitions() != 2 {
		t.Fatalf("lock acquisitions = %d", lock.Acquisitions())
	}
	if rep.Name != "pipeline" {
		t.Fatalf("name = %q", rep.Name)
	}
}

func TestCustomProgramFuncAndContext(t *testing.T) {
	iterations := 0
	wl := CustomWorkload("gen", func(b *Builder) error {
		return b.Spawn("g", 0, ProgramFunc(func(ctx *Context) Op {
			if iterations >= 5 {
				return OpDone()
			}
			iterations++
			// Exercise the deterministic randomness helpers.
			d := ctx.Jitter(100*time.Microsecond, 0.2)
			if ctx.Float64() < 0 || ctx.Intn(10) >= 10 {
				t.Error("context randomness out of range")
			}
			if ctx.Exp(time.Microsecond) <= 0 {
				t.Error("Exp returned non-positive")
			}
			return OpCompute(d)
		}))
	})
	rep, err := Run(Scenario{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if iterations != 5 {
		t.Fatalf("iterations = %d", iterations)
	}
	if rep.ExecutionTime <= 0 {
		t.Fatal("no execution time")
	}
}

func TestZeroOpFinishesTask(t *testing.T) {
	wl := CustomWorkload("zero", func(b *Builder) error {
		return b.Spawn("z", 0, ProgramFunc(func(*Context) Op {
			return Op{} // zero value must terminate, not spin
		}))
	})
	if _, err := Run(Scenario{Workload: wl}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidIOEndsRunWithError(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(d *Device) Op
		want string
	}{
		{"zero-read", func(d *Device) Op { return OpRead(d, 0, false) }, "read of 0 bytes"},
		{"negative-write", func(d *Device) Op { return OpWrite(d, -4096, false, true) }, "write of -4096 bytes"},
		{"nil-device", func(*Device) Op { return OpRead(nil, 4096, false) }, "nil device"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := CustomWorkload("io", func(b *Builder) error {
				dev, err := b.AttachDevice("disk", DeviceNVMe)
				if err != nil {
					return err
				}
				if err := b.Spawn("ok", 0, Sequence(OpRead(dev, 4096, false))); err != nil {
					return err
				}
				return b.Spawn("reader", 0, Sequence(OpCompute(time.Microsecond), tc.op(dev), OpCompute(time.Millisecond)))
			})
			_, err := Run(Scenario{Workload: wl})
			if err == nil {
				t.Fatal("invalid I/O accepted")
			}
			if msg := err.Error(); !strings.Contains(msg, `"reader"`) || !strings.Contains(msg, tc.want) {
				t.Fatalf("error %q does not name the program and %q", msg, tc.want)
			}
		})
	}
}

func TestSpawnValidation(t *testing.T) {
	wl := CustomWorkload("bad", func(b *Builder) error {
		return b.Spawn("x", 99, Sequence(OpCompute(time.Millisecond)))
	})
	if _, err := Run(Scenario{Workload: wl}); err == nil {
		t.Error("out-of-range vCPU accepted")
	}
	wl2 := CustomWorkload("bad2", func(b *Builder) error {
		return b.Spawn("x", 0, nil)
	})
	if _, err := Run(Scenario{Workload: wl2}); err == nil {
		t.Error("nil program accepted")
	}
}

func TestTraceCapture(t *testing.T) {
	rep, err := Run(Scenario{
		Mode:          ModeParatick,
		Workload:      FioWorkload("rndr", 4, 1),
		TraceCapacity: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || rep.Trace.Total() == 0 {
		t.Fatal("trace empty")
	}
	if !strings.Contains(rep.Trace.Summary(), "exit/") {
		t.Error("trace summary missing exits")
	}
}

// TestResultCountsEvents checks that Report.Result carries the run's engine
// event count, which the experiment layer's results have always reported.
func TestResultCountsEvents(t *testing.T) {
	rep, err := Run(Scenario{Mode: ModeParatick, Workload: FioWorkload("rndr", 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Result().Events; got == 0 {
		t.Error("Result().Events = 0 for a completed fio run")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Scenario{
			VCPUs:    4,
			Seed:     77,
			Workload: ParsecParallelScaled("dedup", 4, 0.01),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.TotalExits != b.TotalExits || a.ExecutionTime != b.ExecutionTime ||
		a.BusyCycles != b.BusyCycles {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed uint64) *Report {
		rep, err := Run(Scenario{
			VCPUs:    2,
			Seed:     seed,
			Workload: ParsecParallelScaled("canneal", 2, 0.01),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if run(1).ExecutionTime == run(2).ExecutionTime {
		t.Error("different seeds produced identical execution times (suspicious)")
	}
}

func TestDeviceClasses(t *testing.T) {
	for _, d := range []DeviceClass{DeviceNVMe, DeviceSataSSD, DeviceHDD} {
		if d.profile().Validate() != nil {
			t.Errorf("device class %v invalid", d)
		}
	}
	if DeviceNVMe.String() != "nvme" || DeviceHDD.String() != "hdd" || DeviceSataSSD.String() != "sata-ssd" {
		t.Error("device class names")
	}
}

func TestHDDShowsLittleBenefit(t *testing.T) {
	// §4.2: "For high latency I/O devices such as HDDs the potential for
	// improvement is limited."
	hdd, err := CompareToBaseline(Scenario{Workload: FioWorkloadOn("rndr", 4, 1, DeviceHDD)})
	if err != nil {
		t.Fatal(err)
	}
	nvme, err := CompareToBaseline(Scenario{Workload: FioWorkloadOn("rndr", 4, 1, DeviceNVMe)})
	if err != nil {
		t.Fatal(err)
	}
	if hdd.RuntimeDelta < nvme.RuntimeDelta {
		t.Errorf("HDD runtime benefit (%v) should be smaller than NVMe's (%v)",
			hdd.RuntimeDelta, nvme.RuntimeDelta)
	}
	if hdd.RuntimeDelta < -0.02 {
		t.Errorf("HDD runtime delta = %v, should be near zero", hdd.RuntimeDelta)
	}
}

func TestSummaryIncludesLatencyTables(t *testing.T) {
	rep, err := Run(Scenario{
		Mode:     ModePeriodic,
		VCPUs:    1,
		Duration: 100 * time.Millisecond,
		Workload: IdleWorkload(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExitLatencyTable() == nil || rep.InjectLatencyTable() == nil {
		t.Fatal("latency tables nil for a run with exits")
	}
	s := rep.Summary()
	for _, want := range []string{
		"exit handling cost", "injection latency", "tick interval",
		"p50", "p95", "p99",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
