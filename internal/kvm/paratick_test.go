package kvm

import (
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/trace"
)

// TestParatickCatchUpAfterLongHalt: a vCPU halted across many tick periods
// receives exactly one virtual tick on wake (§4.1), not a burst.
func TestParatickCatchUpAfterLongHalt(t *testing.T) {
	rig := newRig(t, core.Paratick, 1)
	// Sleep far longer than a tick period, then compute briefly.
	rig.vm.Kernel().Spawn("napper", 0, guest.Steps(
		guest.Compute(sim.Millisecond),
		guest.Sleep(100*sim.Millisecond),
		guest.Compute(sim.Millisecond),
	))
	rig.runUntilDone(t, sim.Second)
	c := rig.vm.Counters()
	// ~25 periods asleep; awake ~2ms. Virtual ticks should be bounded by
	// awake-time ticks plus one catch-up per wake, nowhere near 25.
	if c.VirtualTicks > 6 {
		t.Fatalf("virtual ticks = %d; halted periods must not be replayed", c.VirtualTicks)
	}
}

// TestParatickTickRateOnBusyGuestLongRun: over one simulated second, a busy
// paratick guest receives its declared 250 ticks/s within a few percent.
func TestParatickTickRateOnBusyGuestLongRun(t *testing.T) {
	rig := newRig(t, core.Paratick, 1)
	rig.vm.Kernel().Spawn("spin", 0, guest.Steps(guest.Compute(sim.Second)))
	rig.runUntilDone(t, 2*sim.Second)
	c := rig.vm.Counters()
	if c.GuestTicks < 240 || c.GuestTicks > 260 {
		t.Fatalf("guest ticks over 1s busy = %d, want ~250", c.GuestTicks)
	}
}

// TestTimerStealChargesRunningVCPU: under overcommit with periodic guests,
// tick timers of descheduled vCPUs must surface as timer-steal exits on
// whoever runs (§3.1).
func TestTimerStealChargesRunningVCPU(t *testing.T) {
	engine := sim.NewEngine(42)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	gcfg.Mode = core.Periodic
	// Two periodic 1-vCPU VMs sharing pCPU 0; one computes, the other
	// idles (so its tick keeps firing while descheduled or halted).
	busy, err := host.NewVM("busy", gcfg, []hw.CPUID{0})
	if err != nil {
		t.Fatal(err)
	}
	idle, err := host.NewVM("idle", gcfg, []hw.CPUID{0})
	if err != nil {
		t.Fatal(err)
	}
	busy.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(400*sim.Millisecond)))
	busy.Start()
	idle.Start()
	engine.RunUntil(500 * sim.Millisecond)
	steals := busy.Counters().Exits[metrics.ExitTimerSteal]
	// The idle VM ticks ~every rotation (≈8ms → ~50 fires over 400ms);
	// roughly half land while the busy VM executes guest code.
	if steals < 10 {
		t.Fatalf("timer-steal exits on the busy VM = %d, want ≥10", steals)
	}
}

// TestCrossSocketIPICostsMore: wakeup IPIs across sockets are taxed.
func TestCrossSocketIPICost(t *testing.T) {
	engine := sim.NewEngine(1)
	cfg := DefaultConfig() // paper topology: sockets of 20
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := host.NewVM("x", guest.DefaultConfig(), []hw.CPUID{0, 30}) // sockets 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	p0 := vm.VCPUs()[0].PCPU()
	same := p0.ipiCost(vm.VCPUs()[0], 0)
	cross := p0.ipiCost(vm.VCPUs()[0], 1)
	if cross <= same {
		t.Fatalf("cross-socket IPI (%v) should cost more than same-socket (%v)", cross, same)
	}
	want := sim.Time(float64(cfg.Cost.ExitIPI) * cfg.Topology.CrossSocketTax)
	if cross != want {
		t.Fatalf("cross-socket IPI = %v, want %v", cross, want)
	}
}

// TestCycleAccountingConservation: useful cycles equal exactly the compute
// the workload requested, regardless of interrupts and preemptions.
func TestCycleAccountingConservation(t *testing.T) {
	for _, mode := range []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick} {
		rig := newRig(t, mode, 2)
		const work = 37*sim.Millisecond + 123
		rig.vm.Kernel().Spawn("a", 0, guest.Steps(guest.Compute(work)))
		rig.vm.Kernel().Spawn("b", 1, guest.Steps(guest.Compute(work/3)))
		rig.runUntilDone(t, sim.Second)
		c := rig.vm.Counters()
		if c.GuestUseful != work+work/3 {
			t.Fatalf("%v: useful = %v, want %v", mode, c.GuestUseful, work+work/3)
		}
	}
}

// TestTraceRecordsExitsMatchingCounters: the tracer's per-reason counts
// agree with the metrics counters.
func TestTraceRecordsExitsMatchingCounters(t *testing.T) {
	rig := newRig(t, core.DynticksIdle, 1)
	tr := trace.NewBuffer(64) // small ring; aggregates still count all
	rig.host.SetTracer(tr)
	dev, err := rig.vm.AttachDevice("d", iodev.NVMe())
	if err != nil {
		t.Fatal(err)
	}
	var steps []guest.Step
	for i := 0; i < 30; i++ {
		steps = append(steps, guest.Read(dev, 4096, false))
	}
	rig.vm.Kernel().Spawn("fio", 0, guest.Steps(steps...))
	rig.runUntilDone(t, sim.Second)
	c := rig.vm.Counters()
	for r := metrics.ExitReason(0); r < metrics.NumExitReasons; r++ {
		if got := tr.Count(trace.KindExit, r.String()); got != c.Exits[r] {
			t.Errorf("trace count for %v = %d, counters say %d", r, got, c.Exits[r])
		}
	}
	if rig.host.Tracer() != tr {
		t.Error("tracer accessor broken")
	}
}

// TestTimesliceRotationUnderOvercommit: two compute-bound vCPUs sharing a
// pCPU must alternate on timeslice boundaries rather than run to completion
// serially.
func TestTimesliceRotationUnderOvercommit(t *testing.T) {
	engine := sim.NewEngine(42)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	var vms []*VM
	for i := 0; i < 2; i++ {
		vm, err := host.NewVM("vm", gcfg, []hw.CPUID{0})
		if err != nil {
			t.Fatal(err)
		}
		vm.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(50*sim.Millisecond)))
		vm.Start()
		vms = append(vms, vm)
	}
	engine.RunUntil(200 * sim.Millisecond)
	_, at0 := vms[0].WorkloadDone()
	_, at1 := vms[1].WorkloadDone()
	// With 6ms slices both finish near 100ms; serial execution would put
	// the first at ~50ms. Rotation means neither finishes before ~90ms.
	if at0 < 90*sim.Millisecond {
		t.Fatalf("vm0 finished at %v — ran serially, no timeslicing", at0)
	}
	if at1 < 90*sim.Millisecond || at1 > 120*sim.Millisecond {
		t.Fatalf("vm1 finished at %v", at1)
	}
}

// TestGuaranteeParatickNeverMoreTimerExits is the §4.2 guarantee as a
// randomized end-to-end property: across random mixed workloads, paratick
// never induces more timer-related VM exits than the dynticks baseline.
func TestGuaranteeParatickNeverMoreTimerExits(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := uint64(1000 + trial)
		run := func(mode core.Mode) *metrics.Counters {
			engine := sim.NewEngine(seed)
			cfg := DefaultConfig()
			cfg.Topology = hw.SmallTopology()
			host, err := NewHost(engine, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gcfg := guest.DefaultConfig()
			gcfg.Mode = mode
			vcpus := 1 + int(seed%4)
			placement := make([]hw.CPUID, vcpus)
			for i := range placement {
				placement[i] = hw.CPUID(i)
			}
			vm, err := host.NewVM("p", gcfg, placement)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := vm.AttachDevice("d", iodev.NVMe())
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRand(seed)
			lock := vm.Kernel().NewLock("l")
			for i := 0; i < vcpus; i++ {
				var steps []guest.Step
				for j := 0; j < 20; j++ {
					switch rng.Intn(4) {
					case 0:
						steps = append(steps, guest.Compute(rng.Between(10*sim.Microsecond, 2*sim.Millisecond)))
					case 1:
						steps = append(steps, guest.Sleep(rng.Between(100*sim.Microsecond, 5*sim.Millisecond)))
					case 2:
						steps = append(steps, guest.Read(dev, 4096, rng.Bool(0.5)))
					case 3:
						steps = append(steps,
							guest.Acquire(lock),
							guest.Compute(rng.Between(sim.Microsecond, 20*sim.Microsecond)),
							guest.Release(lock))
					}
				}
				vm.Kernel().Spawn("t", i, guest.Steps(steps...))
			}
			vm.OnWorkloadDone = func(sim.Time) { engine.Stop() }
			vm.Start()
			engine.RunUntil(10 * sim.Second)
			if done, _ := vm.WorkloadDone(); !done {
				t.Fatalf("seed %d mode %v: workload hung", seed, mode)
			}
			return vm.Counters()
		}
		dyn := run(core.DynticksIdle)
		par := run(core.Paratick)
		if par.TimerExits() > dyn.TimerExits() {
			t.Errorf("seed %d: paratick timer exits %d > dynticks %d — §4.2 guarantee violated",
				seed, par.TimerExits(), dyn.TimerExits())
		}
	}
}

// TestPeriodicGuestUnaffectedByParatickHost: a VM that never negotiated
// paratick must not receive virtual ticks even if an entry hook is forced.
func TestPeriodicGuestRejectsInjectedVirtualTicks(t *testing.T) {
	rig := newRig(t, core.Periodic, 1)
	rig.vm.SetEntryHook(&core.ParatickHost{}) // hostile/misconfigured host
	rig.vm.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(50*sim.Millisecond)))
	rig.runUntilDone(t, sim.Second)
	c := rig.vm.Counters()
	// A periodic guest's own timer pends a local-timer interrupt at every
	// period, so the Fig. 2 hook sees HasPendingLocalTimer and rarely (if
	// ever) injects; whatever does arrive is rejected by the guest
	// (§5.2.1). Tick work must come exclusively from the guest's own
	// 250 Hz timer.
	ticks := float64(c.GuestTicks)
	if ticks < 10 || ticks > 16 {
		t.Fatalf("guest ticks = %v, want ~12.5 (own 250 Hz timer only)", ticks)
	}
	if c.VirtualTicks > c.GuestTicks {
		t.Fatalf("virtual ticks %d exceed processed ticks %d", c.VirtualTicks, c.GuestTicks)
	}
}

// TestHypercallRecordsDeclaredRate: the §4.1 boot hypercall reaches the
// host side.
func TestHypercallRecordsDeclaredRate(t *testing.T) {
	engine := sim.NewEngine(1)
	cfg := DefaultConfig()
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	gcfg.Mode = core.Paratick
	gcfg.TickHz = 1000
	vm, err := host.NewVM("v", gcfg, []hw.CPUID{0})
	if err != nil {
		t.Fatal(err)
	}
	if vm.DeclaredTickHz() != 0 {
		t.Fatal("declared before boot")
	}
	if vm.GuestTickPeriod() != sim.Millisecond {
		t.Fatalf("pre-hypercall fallback period = %v, want config-derived 1ms", vm.GuestTickPeriod())
	}
	vm.Start()
	engine.RunUntil(10 * sim.Millisecond)
	if vm.DeclaredTickHz() != 1000 {
		t.Fatalf("declared hz = %d, want 1000", vm.DeclaredTickHz())
	}
}

// TestVCPUAccessors exercises the small introspection surface.
func TestVCPUAccessors(t *testing.T) {
	rig := newRig(t, core.DynticksIdle, 2)
	v := rig.vm.VCPUs()[1]
	if v.ID() != 1 || v.VM() != rig.vm {
		t.Error("identity accessors")
	}
	if v.PCPU() != rig.host.PCPUs()[1] {
		t.Error("pcpu accessor")
	}
	if v.State() != VCPUStopped {
		t.Error("initial state")
	}
	if len(v.PendingIRQs()) != 0 {
		t.Error("fresh vCPU has pending IRQs")
	}
	v.pendIRQ(hw.RescheduleVector)
	v.pendIRQ(hw.RescheduleVector) // dedupe
	if got := v.PendingIRQs(); len(got) != 1 || got[0] != hw.RescheduleVector {
		t.Errorf("pending = %v", got)
	}
	if !rig.host.Config().Topology.SameSocket(0, 1) {
		t.Error("test premise: both on socket 0")
	}
	if rig.host.Engine() == nil || rig.host.Now() != 0 {
		t.Error("host accessors")
	}
}

func TestPCPUAccessorsAndHostVMs(t *testing.T) {
	rig := newRig(t, core.DynticksIdle, 1)
	p := rig.host.PCPUs()[0]
	if p.ID() != 0 || p.Current() != nil || p.RunQueueLen() != 0 {
		t.Error("fresh pCPU accessors wrong")
	}
	if len(rig.host.VMs()) != 1 || rig.host.VMs()[0] != rig.vm {
		t.Error("host VMs accessor")
	}
	v := rig.vm.VCPUs()[0]
	if v.HostTickPeriod() != 4*sim.Millisecond {
		t.Error("HostTickPeriod accessor")
	}
}

func TestArmTopUpTimerKeepsEarlierDeadline(t *testing.T) {
	rig := newRig(t, core.Paratick, 1)
	v := rig.vm.VCPUs()[0]
	v.ArmTopUpTimer(10 * sim.Millisecond)
	v.ArmTopUpTimer(20 * sim.Millisecond) // later: ignored
	if v.topUpTimer.Deadline() != 10*sim.Millisecond {
		t.Fatalf("deadline = %v, want the earlier 10ms", v.topUpTimer.Deadline())
	}
	v.ArmTopUpTimer(5 * sim.Millisecond) // earlier: replaces
	if v.topUpTimer.Deadline() != 5*sim.Millisecond {
		t.Fatalf("deadline = %v, want 5ms", v.topUpTimer.Deadline())
	}
}

func TestPLEExitsChargedOnSpinSegments(t *testing.T) {
	engine := sim.NewEngine(42)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	cfg.PLEWindow = 10 * sim.Microsecond
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	gcfg.AdaptiveSpin = 35 * sim.Microsecond
	vm, err := host.NewVM("s", gcfg, []hw.CPUID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	l := vm.Kernel().NewLock("hot")
	// vCPU0 holds the lock through a long compute; vCPU1 spins then blocks.
	vm.Kernel().Spawn("holder", 0, guest.Steps(
		guest.Acquire(l), guest.Compute(sim.Millisecond), guest.Release(l)))
	vm.Kernel().Spawn("spinner", 1, guest.Steps(
		guest.Compute(10*sim.Microsecond), guest.Acquire(l), guest.Release(l)))
	vm.OnWorkloadDone = func(sim.Time) { engine.Stop() }
	vm.Start()
	engine.RunUntil(sim.Second)
	if done, _ := vm.WorkloadDone(); !done {
		t.Fatal("hung")
	}
	// One 35µs spin with a 10µs window → 3 PLE exits.
	if got := vm.Counters().Exits[metrics.ExitPLE]; got != 3 {
		t.Fatalf("PLE exits = %d, want 3", got)
	}
}

// TestChargePLEClosedForm pins chargePLE's one-step charge to the loop it
// replaced, one single-exit charge per elapsed PLE window: for every
// (spin, window) pair the VM's counters, exit-cost histogram included, come
// out identical.
func TestChargePLEClosedForm(t *testing.T) {
	for _, tc := range []struct{ spin, window sim.Time }{
		{35 * sim.Microsecond, 10 * sim.Microsecond},
		{10 * sim.Microsecond, 10 * sim.Microsecond},
		{9 * sim.Microsecond, 10 * sim.Microsecond}, // shorter than a window
		{0, sim.Microsecond},
		{1_234_567, 3_333},
		{100 * sim.Microsecond, 1}, // 100,000 exits
		{sim.Millisecond, 0},       // PLE off
	} {
		r := newRig(t, core.Periodic, 1)
		r.host.cfg.PLEWindow = tc.window
		v := r.vm.vcpus[0]
		v.vm.counters.Exits[metrics.ExitPLE] = 7 // charges add to what is there
		want := *v.vm.counters
		v.pcpu.chargePLE(v, &guestSegment{Kind: guest.SegRun, Spin: true, Duration: tc.spin})
		cost := v.pcpu.cost().ExitPLE
		var windows sim.Time
		if tc.window > 0 {
			windows = tc.spin / tc.window
		}
		for i := sim.Time(0); i < windows; i++ {
			want.Exits[metrics.ExitPLE]++
			want.HostOverhead += cost
			want.ExitCost[metrics.ExitPLE].Observe(cost)
		}
		if *v.vm.counters != want {
			t.Errorf("spin %v, window %v: closed form charged %d exits, %v overhead; the loop charges %d, %v",
				tc.spin, tc.window, v.vm.counters.Exits[metrics.ExitPLE], v.vm.counters.HostOverhead,
				want.Exits[metrics.ExitPLE], want.HostOverhead)
		}
	}
}
