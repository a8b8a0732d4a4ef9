package kvm

import (
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// testRig is a host with one VM, ready for task spawning.
type testRig struct {
	engine *sim.Engine
	host   *Host
	vm     *VM
}

func newRig(t *testing.T, mode core.Mode, vcpus int) *testRig {
	t.Helper()
	engine := sim.NewEngine(42)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology() // 16 pCPUs
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	gcfg.Mode = mode
	placement := make([]hw.CPUID, vcpus)
	for i := range placement {
		placement[i] = hw.CPUID(i)
	}
	vm, err := host.NewVM("test", gcfg, placement)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{engine: engine, host: host, vm: vm}
}

// runUntilDone starts the VM and runs until its workload finishes (or the
// deadline passes, which fails the test).
func (r *testRig) runUntilDone(t *testing.T, deadline sim.Time) sim.Time {
	t.Helper()
	r.vm.OnWorkloadDone = func(sim.Time) { r.engine.Stop() }
	r.vm.Start()
	r.engine.RunUntil(deadline)
	done, at := r.vm.WorkloadDone()
	if !done {
		t.Fatalf("workload not done by %v; live tasks: %d", deadline, r.vm.Kernel().LiveTasks())
	}
	return at
}

func TestHostConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	bad := DefaultConfig()
	bad.HostHz = 0
	if _, err := NewHost(e, bad); err == nil {
		t.Error("HostHz=0 accepted")
	}
	bad = DefaultConfig()
	bad.Timeslice = 0
	if _, err := NewHost(e, bad); err == nil {
		t.Error("Timeslice=0 accepted")
	}
	bad = DefaultConfig()
	bad.HaltPoll = -1
	if _, err := NewHost(e, bad); err == nil {
		t.Error("negative HaltPoll accepted")
	}
	if _, err := NewHost(nil, DefaultConfig()); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestNewVMValidation(t *testing.T) {
	e := sim.NewEngine(1)
	h, err := NewHost(e, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.NewVM("x", guest.DefaultConfig(), nil); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := h.NewVM("x", guest.DefaultConfig(), []hw.CPUID{999}); err == nil {
		t.Error("out-of-range placement accepted")
	}
	bad := guest.DefaultConfig()
	bad.TickHz = 0
	if _, err := h.NewVM("x", bad, []hw.CPUID{0}); err == nil {
		t.Error("bad guest config accepted")
	}
}

func TestComputeTaskCompletes(t *testing.T) {
	for _, mode := range []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick} {
		t.Run(mode.String(), func(t *testing.T) {
			rig := newRig(t, mode, 1)
			const work = 50 * sim.Millisecond
			rig.vm.Kernel().Spawn("worker", 0, guest.Steps(guest.Compute(work)))
			at := rig.runUntilDone(t, sim.Second)
			if at < work {
				t.Fatalf("finished at %v before the work amount %v", at, work)
			}
			// Completion should be within ~20% of the pure compute time
			// (overheads are microseconds per tick).
			if at > work*12/10 {
				t.Fatalf("finished at %v, way beyond work %v", at, work)
			}
			c := rig.vm.Counters()
			if c.GuestUseful != work {
				t.Fatalf("useful cycles = %v, want %v", c.GuestUseful, work)
			}
			if c.TotalExits() == 0 {
				t.Fatal("no VM exits recorded")
			}
		})
	}
}

func TestPeriodicBusyTickExits(t *testing.T) {
	// §3.1: a busy periodic guest takes 2 timer-related exits per tick
	// (MSR write + preemption-timer expiry). 250 Hz for 100ms ≈ 25 ticks.
	rig := newRig(t, core.Periodic, 1)
	rig.vm.Kernel().Spawn("worker", 0, guest.Steps(guest.Compute(100*sim.Millisecond)))
	rig.runUntilDone(t, sim.Second)
	c := rig.vm.Counters()
	ticks := float64(c.GuestTicks)
	if ticks < 20 || ticks > 30 {
		t.Fatalf("guest ticks = %v, want ~25", ticks)
	}
	timerExits := float64(c.TimerExits())
	if timerExits < 2*ticks*0.9 || timerExits > 2*ticks*1.1+2 {
		t.Fatalf("timer exits = %v for %v ticks, want ~2 per tick", timerExits, ticks)
	}
}

func TestParatickBusyReceivesVirtualTicks(t *testing.T) {
	// A busy paratick vCPU gets its ticks injected on host-tick induced
	// entries: ~250 virtual ticks/s and ~zero timer exits.
	rig := newRig(t, core.Paratick, 1)
	rig.vm.Kernel().Spawn("worker", 0, guest.Steps(guest.Compute(100*sim.Millisecond)))
	rig.runUntilDone(t, sim.Second)
	c := rig.vm.Counters()
	if c.VirtualTicks < 20 || c.VirtualTicks > 30 {
		t.Fatalf("virtual ticks = %d over 100ms at 250 Hz, want ~25", c.VirtualTicks)
	}
	if c.GuestTicks < 20 {
		t.Fatalf("guest tick work ran %d times, want ~25", c.GuestTicks)
	}
	if c.TimerExits() > 2 {
		t.Fatalf("paratick busy guest had %d timer exits, want ~0", c.TimerExits())
	}
	// The guest declared its frequency via hypercall at boot.
	if rig.vm.DeclaredTickHz() != 250 {
		t.Fatalf("declared tick hz = %d, want 250", rig.vm.DeclaredTickHz())
	}
	if c.Exits[1]+c.Exits[0] != c.TimerExits() {
		t.Fatal("timer exit classification inconsistent")
	}
}

func TestIdleVMExitRates(t *testing.T) {
	// Table 1's W1 in miniature: an idle VM. Periodic keeps paying 2 exits
	// per tick per vCPU; dynticks and paratick go fully quiescent.
	const dur = sim.Second
	exits := map[core.Mode]uint64{}
	for _, mode := range []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick} {
		rig := newRig(t, mode, 2)
		rig.vm.Start()
		rig.engine.RunUntil(dur)
		exits[mode] = rig.vm.Counters().TotalExits()
	}
	// Periodic: 2 vCPUs × 250 ticks × 2 exits per tick (the §3.1 formula):
	// the halted vCPU wakes for its tick, re-arms (MSR exit), and halts
	// again (HLT exit); expiry itself costs no exit while descheduled.
	if exits[core.Periodic] < 900 || exits[core.Periodic] > 1200 {
		t.Errorf("periodic idle exits = %d, want ~1000 (2/tick/vCPU)", exits[core.Periodic])
	}
	// Dynticks/paratick: only boot-time activity.
	if exits[core.DynticksIdle] > 20 {
		t.Errorf("dynticks idle exits = %d, want ~boot-only", exits[core.DynticksIdle])
	}
	if exits[core.Paratick] > 20 {
		t.Errorf("paratick idle exits = %d, want ~boot-only", exits[core.Paratick])
	}
}

func TestSleepWakesOnTime(t *testing.T) {
	for _, mode := range []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick} {
		t.Run(mode.String(), func(t *testing.T) {
			rig := newRig(t, mode, 1)
			const nap = 20 * sim.Millisecond
			rig.vm.Kernel().Spawn("sleeper", 0, guest.Steps(
				guest.Compute(sim.Millisecond),
				guest.Sleep(nap),
				guest.Compute(sim.Millisecond),
			))
			at := rig.runUntilDone(t, sim.Second)
			// Must not wake early; wheel granularity is one tick period
			// (4ms), so allow two periods of slack plus overheads.
			if at < nap {
				t.Fatalf("finished at %v, before the %v sleep elapsed", at, nap)
			}
			if at > nap+10*sim.Millisecond {
				t.Fatalf("finished at %v, sleep overshoot too large", at)
			}
		})
	}
}

func TestTwoTasksShareOneVCPU(t *testing.T) {
	// Round-robin preemption from the tick: two CPU hogs on one vCPU both
	// finish, in roughly double the single-task time.
	rig := newRig(t, core.DynticksIdle, 1)
	const work = 40 * sim.Millisecond
	rig.vm.Kernel().Spawn("a", 0, guest.Steps(guest.Compute(work)))
	rig.vm.Kernel().Spawn("b", 0, guest.Steps(guest.Compute(work)))
	at := rig.runUntilDone(t, sim.Second)
	if at < 2*work {
		t.Fatalf("two tasks of %v finished at %v", work, at)
	}
	if at > 2*work*12/10 {
		t.Fatalf("excessive overhead: finished at %v", at)
	}
	c := rig.vm.Counters()
	if c.ContextSw < 10 {
		t.Fatalf("context switches = %d, want ≥10 (tick preemption)", c.ContextSw)
	}
}

func TestCrossVCPULockHandoffUsesIPIs(t *testing.T) {
	// Task A on vCPU0 holds a lock task B on vCPU1 wants; the release
	// must wake B through a reschedule IPI.
	rig := newRig(t, core.DynticksIdle, 2)
	k := rig.vm.Kernel()
	l := k.NewLock("l")
	k.Spawn("holder", 0, guest.Steps(
		guest.Acquire(l),
		guest.Compute(10*sim.Millisecond),
		guest.Release(l),
		guest.Compute(sim.Millisecond),
	))
	k.Spawn("waiter", 1, guest.Steps(
		guest.Compute(sim.Millisecond), // lose the race for the lock
		guest.Acquire(l),
		guest.Compute(sim.Millisecond),
		guest.Release(l),
	))
	rig.runUntilDone(t, sim.Second)
	c := rig.vm.Counters()
	if c.Exits[5] == 0 { // ExitIPI
		t.Fatalf("no IPI exits despite cross-vCPU handoff; exits: %v", c.Exits)
	}
	if c.Wakeups == 0 {
		t.Fatal("no wakeups recorded")
	}
	if l.Contended() == 0 {
		t.Fatal("lock was never contended — test premise broken")
	}
}

func TestBarrierReleasesAllParties(t *testing.T) {
	rig := newRig(t, core.Paratick, 4)
	k := rig.vm.Kernel()
	b := k.NewBarrier("phase", 4)
	for i := 0; i < 4; i++ {
		k.Spawn("t", i, guest.Steps(
			guest.Compute(sim.Time(i+1)*sim.Millisecond), // staggered arrivals
			guest.JoinBarrier(b),
			guest.Compute(sim.Millisecond),
		))
	}
	rig.runUntilDone(t, sim.Second)
	if b.Cycles() != 1 {
		t.Fatalf("barrier cycles = %d, want 1", b.Cycles())
	}
	if b.Waiting() != 0 {
		t.Fatalf("barrier still has %d waiters", b.Waiting())
	}
}

func TestSyncIOCompletes(t *testing.T) {
	for _, mode := range []core.Mode{core.DynticksIdle, core.Paratick} {
		t.Run(mode.String(), func(t *testing.T) {
			rig := newRig(t, mode, 1)
			dev, err := rig.vm.AttachDevice("nvme0", iodev.NVMe())
			if err != nil {
				t.Fatal(err)
			}
			const ops = 50
			steps := make([]guest.Step, 0, ops)
			for i := 0; i < ops; i++ {
				steps = append(steps, guest.Read(dev, 4096, false))
			}
			rig.vm.Kernel().Spawn("fio", 0, guest.Steps(steps...))
			rig.runUntilDone(t, sim.Second)
			c := rig.vm.Counters()
			if c.IOReads != ops {
				t.Fatalf("completed reads = %d, want %d", c.IOReads, ops)
			}
			if c.IOBytesRead != ops*4096 {
				t.Fatalf("bytes read = %d", c.IOBytesRead)
			}
			if got := c.Exits[4]; got != ops { // ExitIOKick
				t.Fatalf("io-kick exits = %d, want %d", got, ops)
			}
			if dev.Ops() != ops {
				t.Fatalf("device ops = %d", dev.Ops())
			}
		})
	}
}

func TestIOTimerExitsParatickVsDynticks(t *testing.T) {
	// The §6.3 mechanism: each sync I/O blocks the task, so dynticks pays
	// MSR writes on idle entry and exit; paratick pays almost none.
	run := func(mode core.Mode) *VM {
		rig := newRig(t, mode, 1)
		dev, err := rig.vm.AttachDevice("nvme0", iodev.NVMe())
		if err != nil {
			t.Fatal(err)
		}
		steps := make([]guest.Step, 0, 200)
		for i := 0; i < 200; i++ {
			steps = append(steps, guest.Compute(2*sim.Microsecond), guest.Read(dev, 4096, false))
		}
		rig.vm.Kernel().Spawn("fio", 0, guest.Steps(steps...))
		rig.runUntilDone(t, 10*sim.Second)
		return rig.vm
	}
	dyn := run(core.DynticksIdle).Counters()
	par := run(core.Paratick).Counters()
	if par.TimerExits() >= dyn.TimerExits() {
		t.Fatalf("paratick timer exits (%d) not below dynticks (%d)",
			par.TimerExits(), dyn.TimerExits())
	}
	if par.TotalExits() >= dyn.TotalExits() {
		t.Fatalf("paratick total exits (%d) not below dynticks (%d)",
			par.TotalExits(), dyn.TotalExits())
	}
	// Dynticks pays ~2 MSR writes per op (idle entry defer/stop + idle
	// exit re-arm); with 200 ops expect hundreds of timer exits.
	if dyn.TimerExits() < 300 {
		t.Fatalf("dynticks timer exits = %d, expected ≥300 for 200 sync ops", dyn.TimerExits())
	}
}

func TestOvercommitBothVMsProgress(t *testing.T) {
	// Two 1-vCPU VMs pinned to the same pCPU: time sharing must let both
	// finish, in roughly the sum of their compute times.
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
		vm, err := host.NewVM("vm", gcfg, []hw.CPUID{0}) // both on pCPU 0
		if err != nil {
			t.Fatal(err)
		}
		vm.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(30*sim.Millisecond)))
		vms = append(vms, vm)
	}
	for _, vm := range vms {
		vm.Start()
	}
	engine.RunUntil(sim.Second)
	for i, vm := range vms {
		done, at := vm.WorkloadDone()
		if !done {
			t.Fatalf("VM %d did not finish", i)
		}
		if at < 30*sim.Millisecond {
			t.Fatalf("VM %d finished impossibly fast at %v", i, at)
		}
	}
	// The second finisher needed both compute slices.
	_, at0 := vms[0].WorkloadDone()
	_, at1 := vms[1].WorkloadDone()
	later := sim.MaxTime(at0, at1)
	if later < 60*sim.Millisecond {
		t.Fatalf("later VM finished at %v, impossible for 2×30ms on one pCPU", later)
	}
	if later > 80*sim.Millisecond {
		t.Fatalf("later VM finished at %v, overhead too large", later)
	}
}

func TestHaltPollingAvoidsSchedDelay(t *testing.T) {
	// With halt polling enabled and a wake arriving inside the window, the
	// vCPU resumes without the descheduling round trip; the polling cycles
	// are charged as host overhead.
	mk := func(haltPoll sim.Time) (sim.Time, *VM) {
		engine := sim.NewEngine(42)
		cfg := DefaultConfig()
		cfg.Topology = hw.SmallTopology()
		cfg.HaltPoll = haltPoll
		host, err := NewHost(engine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := host.NewVM("vm", guest.DefaultConfig(), []hw.CPUID{0})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := vm.AttachDevice("nvme0", iodev.NVMe())
		if err != nil {
			t.Fatal(err)
		}
		var steps []guest.Step
		for i := 0; i < 100; i++ {
			steps = append(steps, guest.Read(dev, 4096, false))
		}
		vm.Kernel().Spawn("fio", 0, guest.Steps(steps...))
		vm.OnWorkloadDone = func(sim.Time) { engine.Stop() }
		vm.Start()
		engine.RunUntil(sim.Second)
		done, at := vm.WorkloadDone()
		if !done {
			t.Fatal("workload incomplete")
		}
		return at, vm
	}
	atNoPoll, _ := mk(0)
	atPoll, vmPoll := mk(100 * sim.Microsecond)
	if atPoll >= atNoPoll {
		t.Fatalf("halt polling did not reduce latency: %v vs %v", atPoll, atNoPoll)
	}
	if vmPoll.Counters().HostOverhead == 0 {
		t.Fatal("polling burned no cycles?")
	}
}

func TestVMResultSnapshot(t *testing.T) {
	rig := newRig(t, core.Paratick, 1)
	rig.vm.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(5*sim.Millisecond)))
	at := rig.runUntilDone(t, sim.Second)
	var res metrics.Result
	rig.vm.ResultInto(&res, "unit")
	if res.Name != "unit" || res.Mode != "paratick" {
		t.Fatalf("result identity: %+v", res)
	}
	if res.WallTime != at {
		t.Fatalf("wall time %v != completion %v", res.WallTime, at)
	}
	if res.Counters.GuestUseful != 5*sim.Millisecond {
		t.Fatalf("useful = %v", res.Counters.GuestUseful)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, uint64) {
		rig := &testRig{}
		rig.engine = sim.NewEngine(1234)
		cfg := DefaultConfig()
		cfg.Topology = hw.SmallTopology()
		host, err := NewHost(rig.engine, cfg)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := host.NewVM("d", guest.DefaultConfig(), []hw.CPUID{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		l := vm.Kernel().NewLock("l")
		for i := 0; i < 2; i++ {
			vm.Kernel().Spawn("w", i, guest.Steps(
				guest.Compute(sim.Millisecond),
				guest.Acquire(l),
				guest.Compute(100*sim.Microsecond),
				guest.Release(l),
				guest.Compute(sim.Millisecond),
			))
		}
		vm.OnWorkloadDone = func(sim.Time) { rig.engine.Stop() }
		vm.Start()
		rig.engine.RunUntil(sim.Second)
		_, at := vm.WorkloadDone()
		return at, vm.Counters().TotalExits()
	}
	a1, e1 := run()
	a2, e2 := run()
	if a1 != a2 || e1 != e2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", a1, e1, a2, e2)
	}
}

func TestVCPUStateString(t *testing.T) {
	if VCPUStopped.String() != "stopped" || VCPURunning.String() != "running" ||
		VCPUHalted.String() != "halted" || VCPURunnable.String() != "runnable" {
		t.Error("state names wrong")
	}
	if VCPUState(9).String() != "vcpu-state(9)" {
		t.Error("unknown state name wrong")
	}
}

func TestStartTwicePanics(t *testing.T) {
	rig := newRig(t, core.DynticksIdle, 1)
	rig.vm.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(sim.Millisecond)))
	rig.vm.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	rig.vm.Start()
}

func TestConfigPLEValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.PLEWindow = -1
	if _, err := NewHost(sim.NewEngine(1), bad); err == nil {
		t.Error("negative PLEWindow accepted")
	}
}

func TestGuestConfigAdaptiveSpinValidation(t *testing.T) {
	e := sim.NewEngine(1)
	h, err := NewHost(e, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := guest.DefaultConfig()
	bad.AdaptiveSpin = -1
	if _, err := h.NewVM("x", bad, []hw.CPUID{0}); err == nil {
		t.Error("negative AdaptiveSpin accepted")
	}
}

func TestHostTickPeriodHelper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HostTickPeriod() != 4*sim.Millisecond {
		t.Fatalf("host tick period = %v", cfg.HostTickPeriod())
	}
}

func TestMultiVMIsolatedCounters(t *testing.T) {
	// Two VMs on separate pCPUs must not leak exits into each other's
	// counters.
	engine := sim.NewEngine(7)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := host.NewVM("busy", guest.DefaultConfig(), []hw.CPUID{0})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := host.NewVM("quiet", guest.DefaultConfig(), []hw.CPUID{1})
	if err != nil {
		t.Fatal(err)
	}
	busy.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(100*sim.Millisecond)))
	busy.Start()
	quiet.Start()
	engine.RunUntil(150 * sim.Millisecond)
	if busy.Counters().TotalExits() < 50 {
		t.Fatalf("busy VM exits = %d", busy.Counters().TotalExits())
	}
	// The quiet dynticks VM quiesces after boot: nothing from the busy VM
	// may appear in its counters.
	if quiet.Counters().TotalExits() > 10 {
		t.Fatalf("quiet VM absorbed %d exits", quiet.Counters().TotalExits())
	}
	if quiet.Counters().GuestUseful != 0 {
		t.Fatal("quiet VM charged useful cycles")
	}
}
