package paratick

import (
	"strings"
	"testing"
	"time"
)

// goodWorkloadSpecs maps specs to the workload names they parse to.
var goodWorkloadSpecs = []struct {
	spec string
	name string
}{
	{"idle", "idle"},
	{"parsec-seq:dedup", "parsec-seq/dedup"},
	{"parsec-par:ferret:8", "parsec-par/ferret-x8"},
	{"fio:rndr:4:64", "fio/rndr-4k"},
	{"sync:16:1000", "sync/16x1000"},
	// A fractional rate keeps its digits, so 0.4 and 0.3 get different
	// names.
	{"sync:2:0.4", "sync/2x0.4"},
	{"sync:2:0.3", "sync/2x0.3"},
}

// badWorkloadSpecs fail to parse.
var badWorkloadSpecs = []string{
	"", "bogus", "parsec-seq", "parsec-seq:a:b", "parsec-par:x",
	"parsec-par:x:notanumber", "fio:rndr:4", "fio:rndr:x:1",
	"fio:rndr:4:x", "sync:16", "sync:x:1000", "sync:16:x",
}

func TestParseWorkloadSpec(t *testing.T) {
	for _, c := range goodWorkloadSpecs {
		w, err := ParseWorkloadSpec(c.spec, time.Second)
		if err != nil {
			t.Errorf("ParseWorkloadSpec(%q): %v", c.spec, err)
			continue
		}
		if w.name() != c.name {
			t.Errorf("spec %q → name %q, want %q", c.spec, w.name(), c.name)
		}
	}
	for _, spec := range badWorkloadSpecs {
		if _, err := ParseWorkloadSpec(spec, 0); err == nil {
			t.Errorf("bad spec %q accepted", spec)
		}
	}
}

func TestParseWorkloadSpecSyncDefaultDuration(t *testing.T) {
	w, err := ParseWorkloadSpec("sync:4:100", 0)
	if err != nil {
		t.Fatal(err)
	}
	sw, ok := w.(*syncWL)
	if !ok {
		t.Fatalf("wrong type %T", w)
	}
	if sw.duration != time.Second {
		t.Fatalf("default duration = %v", sw.duration)
	}
}

func TestOvercommitScenario(t *testing.T) {
	// 8 vCPUs on 2 pCPUs: compute takes ~4× longer than unshared.
	work := func(oc int) time.Duration {
		rep, err := Run(Scenario{
			VCPUs:      8,
			Overcommit: oc,
			Workload: CustomWorkload("oc", func(b *Builder) error {
				for i := 0; i < 8; i++ {
					if err := b.Spawn("w", i, Sequence(OpCompute(10*time.Millisecond))); err != nil {
						return err
					}
				}
				return nil
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecutionTime
	}
	unshared := work(1)
	shared := work(4)
	if shared < 3*unshared {
		t.Fatalf("4:1 overcommit runtime %v should be ~4× unshared %v", shared, unshared)
	}
}

func TestScenarioTopUpTimer(t *testing.T) {
	run := func(topUp bool) *Report {
		rep, err := Run(Scenario{
			Mode:       ModeParatick,
			GuestHz:    1000,
			HostHz:     250,
			TopUpTimer: topUp,
			Workload: CustomWorkload("spin", func(b *Builder) error {
				return b.Spawn("s", 0, Sequence(OpCompute(100*time.Millisecond)))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	without := run(false)
	with := run(true)
	if with.GuestTicks < 3*without.GuestTicks {
		t.Fatalf("top-up ticks %d should be ~4× plain %d", with.GuestTicks, without.GuestTicks)
	}
}

func TestScenarioDisarmOnIdleExitAblation(t *testing.T) {
	run := func(disarm bool) *Report {
		rep, err := Run(Scenario{
			Mode:             ModeParatick,
			DisarmOnIdleExit: disarm,
			Workload: CustomWorkload("mix", func(b *Builder) error {
				dev, err := b.AttachDevice("d", DeviceNVMe)
				if err != nil {
					return err
				}
				// A sleeper keeps a soft timer pending; the reader blocks
				// on I/O, exercising the §5.2.5 idle-exit decision.
				sleeps := 0
				if err := b.Spawn("heartbeat", 0, ProgramFunc(func(ctx *Context) Op {
					if sleeps >= 20 {
						return OpDone()
					}
					sleeps++
					return OpSleep(2 * time.Millisecond)
				})); err != nil {
					return err
				}
				reads := 0
				return b.Spawn("reader", 0, ProgramFunc(func(ctx *Context) Op {
					if reads >= 300 {
						return OpDone()
					}
					reads++
					return OpRead(dev, 4096, false)
				}))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	keep := run(false)
	disarm := run(true)
	if keep.TimerExits >= disarm.TimerExits {
		t.Fatalf("keeping the timer armed (%d timer exits) should beat disarming (%d)",
			keep.TimerExits, disarm.TimerExits)
	}
}

func TestScenarioPLEAndSpin(t *testing.T) {
	run := func(spin, ple time.Duration) *Report {
		rep, err := Run(Scenario{
			VCPUs:        2,
			AdaptiveSpin: spin,
			PLEWindow:    ple,
			Workload: CustomWorkload("hotlock", func(b *Builder) error {
				l := b.NewLock("hot")
				for i := 0; i < 2; i++ {
					iters := 200
					phase := 0
					if err := b.Spawn("t", i, ProgramFunc(func(ctx *Context) Op {
						switch phase {
						case 0:
							if iters <= 0 {
								return OpDone()
							}
							iters--
							phase = 1
							return OpCompute(ctx.Exp(50 * time.Microsecond))
						case 1:
							phase = 2
							return OpAcquire(l)
						case 2:
							phase = 3
							return OpCompute(20 * time.Microsecond)
						default:
							phase = 0
							return OpRelease(l)
						}
					})); err != nil {
						return err
					}
				}
				return nil
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	blocking := run(0, 0)
	spinning := run(30*time.Microsecond, 0)
	spinningPLE := run(30*time.Microsecond, 10*time.Microsecond)
	// Spinning avoids some HLT/IPI exits relative to blocking.
	if spinning.ExitBreakdown["hlt"] >= blocking.ExitBreakdown["hlt"] {
		t.Errorf("spinning should reduce HLT exits: %d vs %d",
			spinning.ExitBreakdown["hlt"], blocking.ExitBreakdown["hlt"])
	}
	// PLE turns those spins into exits.
	if spinningPLE.ExitBreakdown["ple"] == 0 {
		t.Error("PLE window produced no PLE exits")
	}
	if spinning.ExitBreakdown["ple"] != 0 {
		t.Error("PLE exits without a PLE window")
	}
}

func TestScenarioHostHzVariation(t *testing.T) {
	// A 100 Hz host delivers paratick ticks at 100/s to a 100 Hz guest.
	rep, err := Run(Scenario{
		Mode:    ModeParatick,
		GuestHz: 100,
		HostHz:  100,
		Workload: CustomWorkload("spin", func(b *Builder) error {
			return b.Spawn("s", 0, Sequence(OpCompute(500*time.Millisecond)))
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GuestTicks < 45 || rep.GuestTicks > 55 {
		t.Fatalf("guest ticks = %d over 500ms at 100 Hz, want ~50", rep.GuestTicks)
	}
}

func TestReportBreakdownSorted(t *testing.T) {
	rep, err := Run(Scenario{Workload: FioWorkload("rndr", 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	// Under dynticks, MSR writes dominate and the rare external interrupts
	// trail; the breakdown is sorted by count.
	if strings.Index(s, "msr-write") > strings.Index(s, "external-irq") {
		t.Errorf("breakdown not sorted by count:\n%s", s)
	}
}

func TestIdleWorkloadName(t *testing.T) {
	if IdleWorkload().name() != "idle" {
		t.Error("idle workload name")
	}
	rep, err := Run(Scenario{Duration: 10 * time.Millisecond, Workload: IdleWorkload()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "idle" {
		t.Errorf("report name = %q", rep.Name)
	}
}

func TestAttachCustomDevice(t *testing.T) {
	rep, err := Run(Scenario{
		Workload: CustomWorkload("delay", func(b *Builder) error {
			dev, err := b.AttachCustomDevice("line", 500*time.Microsecond, time.Millisecond)
			if err != nil {
				return err
			}
			ops := 0
			return b.Spawn("t", 0, ProgramFunc(func(*Context) Op {
				if ops >= 10 {
					return OpDone()
				}
				ops++
				return OpRead(dev, 4096, false)
			}))
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 reads at ~500µs each dominate the runtime.
	if rep.ExecutionTime < 5*time.Millisecond || rep.ExecutionTime > 7*time.Millisecond {
		t.Fatalf("execution time = %v, want ~5ms", rep.ExecutionTime)
	}
	if _, err := Run(Scenario{
		Workload: CustomWorkload("bad", func(b *Builder) error {
			_, err := b.AttachCustomDevice("x", 0, 0) // invalid latencies
			return err
		}),
	}); err == nil {
		t.Fatal("zero-latency device accepted")
	}
}

func TestCustomCondvarPipeline(t *testing.T) {
	// Public-API condvar: a producer/consumer queue.
	var cond *Cond
	wl := CustomWorkload("pc", func(b *Builder) error {
		mu := b.NewLock("mu")
		cond = b.NewCond("nonempty", mu)
		items := 0
		consumed := 0
		consPhase := 0
		if err := b.Spawn("consumer", 0, ProgramFunc(func(*Context) Op {
			switch consPhase {
			case 0:
				consPhase = 1
				return OpAcquire(mu)
			case 1:
				if items == 0 {
					return OpWait(cond)
				}
				items--
				consumed++
				if consumed < 3 {
					return OpWait(cond) // wait for the next item
				}
				consPhase = 2
				return OpRelease(mu)
			default:
				return OpDone()
			}
		})); err != nil {
			return err
		}
		prodPhase := 0
		produced := 0
		return b.Spawn("producer", 1, ProgramFunc(func(ctx *Context) Op {
			switch prodPhase {
			case 0:
				prodPhase = 1
				return OpCompute(ctx.Jitter(200*time.Microsecond, 0.2))
			case 1:
				prodPhase = 2
				return OpAcquire(mu)
			case 2:
				prodPhase = 3
				items++
				produced++
				return OpSignal(cond)
			case 3:
				if produced < 3 {
					prodPhase = 0
				} else {
					prodPhase = 4
				}
				return OpRelease(mu)
			default:
				return OpDone()
			}
		}))
	})
	rep, err := Run(Scenario{VCPUs: 2, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if cond.Waits() < 3 {
		t.Fatalf("waits = %d, want ≥3", cond.Waits())
	}
	// Cross-vCPU wakes require IPIs.
	if rep.ExitBreakdown["ipi"] == 0 {
		t.Error("no IPIs despite cross-vCPU signaling")
	}
}
