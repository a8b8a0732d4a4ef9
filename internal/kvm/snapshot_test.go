package kvm

import (
	"bytes"
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
	"paratick/internal/trace"
)

// buildSnapScenario constructs the checkpoint fixture: an overcommitted
// paratick VM (two vCPUs sharing pCPU 0) with halt polling enabled, a
// tracer attached, an NVMe device, and two tasks exercising locks, sleeps,
// blocking I/O, and a barrier. Deterministic: every call builds the
// identical world, which is the rebuild contract Host.Load relies on.
func buildSnapScenario(t *testing.T, policy sched.Kind) (*sim.Engine, *Host, *VM) {
	t.Helper()
	engine := sim.NewEngine(4242)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	cfg.HaltPoll = 50 * sim.Microsecond
	cfg.SchedPolicy = policy
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	host.SetTracer(trace.NewBuffer(256))
	gcfg := guest.DefaultConfig()
	gcfg.Mode = core.Paratick
	gcfg.AdaptiveSpin = 3 * sim.Microsecond
	vm, err := host.NewVM("snap", gcfg, []hw.CPUID{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := vm.AttachDevice("nvme0", iodev.NVMe())
	if err != nil {
		t.Fatal(err)
	}
	k := vm.Kernel()
	l := k.NewLock("l0")
	b := k.NewBarrier("join", 2)
	k.Spawn("t0", 0, guest.Steps(
		guest.Compute(sim.Millisecond),
		guest.Acquire(l),
		guest.Compute(200*sim.Microsecond),
		guest.Release(l),
		guest.Read(dev, 4096, false),
		guest.Sleep(3*sim.Millisecond),
		guest.JoinBarrier(b),
		guest.Compute(500*sim.Microsecond),
	))
	k.Spawn("t1", 1, guest.Steps(
		guest.Compute(300*sim.Microsecond),
		guest.Acquire(l),
		guest.Compute(200*sim.Microsecond),
		guest.Release(l),
		guest.Sleep(2*sim.Millisecond),
		guest.Read(dev, 8192, true),
		guest.JoinBarrier(b),
		guest.Compute(sim.Millisecond),
	))
	vm.OnWorkloadDone = func(sim.Time) { engine.Stop() }
	vm.Start()
	return engine, host, vm
}

// saveHost serializes the full world: engine first (restore needs the
// clock before events re-arm), then the host.
func saveHost(t *testing.T, e *sim.Engine, h *Host) []byte {
	t.Helper()
	var enc snap.Encoder
	s := snap.NewWriter(&enc)
	e.Snap(s)
	h.Snap(s)
	if err := s.Err(); err != nil {
		t.Fatalf("host save: %v", err)
	}
	return enc.Bytes()
}

// restoreHost loads a saved world into a freshly rebuilt scenario.
func restoreHost(t *testing.T, buf []byte, e *sim.Engine, h *Host) {
	t.Helper()
	e.Reset(0)
	dec := snap.NewDecoder(buf)
	s := snap.NewReader(dec)
	e.Snap(s)
	h.Snap(s)
	if err := s.Err(); err != nil {
		t.Fatalf("host load: %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("%d bytes left over after load", dec.Remaining())
	}
}

// TestHostSaveLoadByteIdentity snapshots the running fixture at a sweep of
// probe instants — spanning dispatch, in-guest segments, exit windows,
// halt-poll windows, blocked sleepers, in-flight I/O, and the drained
// end state — and checks that restoring each snapshot into a rebuilt
// scenario re-saves to the exact original bytes.
func TestHostSaveLoadByteIdentity(t *testing.T) {
	probes := []sim.Time{
		200 * sim.Microsecond,
		700 * sim.Microsecond,
		1200 * sim.Microsecond,
		2 * sim.Millisecond,
		3100 * sim.Microsecond,
		4500 * sim.Microsecond,
		6 * sim.Millisecond,
		9 * sim.Millisecond,
	}
	for _, policy := range []sched.Kind{sched.FIFO, sched.Fair} {
		t.Run(policy.String(), func(t *testing.T) {
			engine, host, vm := buildSnapScenario(t, policy)
			for _, probe := range probes {
				engine.RunUntil(probe)
				buf := saveHost(t, engine, host)
				e2, h2, _ := buildSnapScenario(t, policy)
				restoreHost(t, buf, e2, h2)
				buf2 := saveHost(t, e2, h2)
				if !bytes.Equal(buf, buf2) {
					t.Fatalf("restore-then-resave at %v diverged: %d vs %d bytes", probe, len(buf), len(buf2))
				}
			}
			engine.RunUntil(50 * sim.Millisecond)
			if done, _ := vm.WorkloadDone(); !done {
				t.Fatal("fixture workload never completed — probes missed the interesting states")
			}
		})
	}
}

// TestHostRestoreContinuesIdentically restores a mid-run snapshot into a
// rebuilt scenario, runs both worlds to completion, and requires the final
// serialized states to be byte-identical — the restored world must replay
// the exact event sequence the original would have run.
func TestHostRestoreContinuesIdentically(t *testing.T) {
	const probe = 1200 * sim.Microsecond
	const deadline = 50 * sim.Millisecond
	for _, policy := range []sched.Kind{sched.FIFO, sched.Fair} {
		t.Run(policy.String(), func(t *testing.T) {
			engine, host, vm := buildSnapScenario(t, policy)
			engine.RunUntil(probe)
			buf := saveHost(t, engine, host)
			engine.RunUntil(deadline)
			done, srcAt := vm.WorkloadDone()
			if !done {
				t.Fatal("source workload incomplete")
			}
			srcFinal := saveHost(t, engine, host)

			e2, h2, vm2 := buildSnapScenario(t, policy)
			restoreHost(t, buf, e2, h2)
			e2.RunUntil(deadline)
			done2, dstAt := vm2.WorkloadDone()
			if !done2 {
				t.Fatal("restored workload incomplete")
			}
			if srcAt != dstAt {
				t.Fatalf("completion time diverged: %v vs %v", srcAt, dstAt)
			}
			dstFinal := saveHost(t, e2, h2)
			if !bytes.Equal(srcFinal, dstFinal) {
				t.Fatalf("final states diverged: %d vs %d bytes", len(srcFinal), len(dstFinal))
			}
			if vm.Counters().TotalExits() != vm2.Counters().TotalExits() {
				t.Fatalf("exit totals diverged: %d vs %d",
					vm.Counters().TotalExits(), vm2.Counters().TotalExits())
			}
		})
	}
}

// TestHostLoadRejectsShapeMismatch loads a 2-vCPU snapshot into a 1-vCPU
// host and expects a validation error rather than corruption.
func TestHostLoadRejectsShapeMismatch(t *testing.T) {
	engine, host, _ := buildSnapScenario(t, sched.FIFO)
	engine.RunUntil(sim.Millisecond)
	buf := saveHost(t, engine, host)

	e2 := sim.NewEngine(4242)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	h2, err := NewHost(e2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.NewVM("snap", guest.DefaultConfig(), []hw.CPUID{0}); err != nil {
		t.Fatal(err)
	}
	e2.Reset(0)
	dec := snap.NewDecoder(buf)
	if err := snap.Decode(dec, e2); err != nil {
		t.Fatal(err)
	}
	if err := h2.Load(dec); err == nil {
		t.Fatal("shape-mismatched load succeeded")
	}
}

// buildIOSnapScenario constructs an I/O-bound checkpoint fixture: four
// tasks on two vCPUs issuing blocking reads and non-blocking writes to a
// one-slot device, so requests sit in every lifecycle stage — carried by a
// submit segment, waiting for the slot, in service, and completed but not
// yet drained — while the device recycles them through its pool.
func buildIOSnapScenario(t *testing.T) (*sim.Engine, *Host, *VM, *iodev.Device) {
	t.Helper()
	engine := sim.NewEngine(5150)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := host.NewVM("io", guest.DefaultConfig(), []hw.CPUID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	profile := iodev.NVMe()
	profile.QueueDepth = 1
	dev, err := vm.AttachDevice("nvme0", profile)
	if err != nil {
		t.Fatal(err)
	}
	k := vm.Kernel()
	for i := 0; i < 4; i++ {
		var steps []guest.Step
		for j := 0; j < 8; j++ {
			steps = append(steps,
				guest.Compute(sim.Time(3+i)*sim.Microsecond),
				guest.WriteOp(dev, 4096, j%2 == 0, false),
				guest.Read(dev, 4096*(1+(i+j)%3), j%3 == 0))
		}
		k.Spawn("io", i%2, guest.Steps(steps...))
	}
	vm.OnWorkloadDone = func(sim.Time) { engine.Stop() }
	vm.Start()
	return engine, host, vm, dev
}

// TestHostIOSaveLoadAfterPoolsCycle sweeps the I/O fixture in small steps
// once requests have started coming back from the pool. At every probe the
// checkpoint must restore and re-save byte for byte; the first probe that
// shows each lifecycle stage is also run to completion and compared with
// a straight-through run.
func TestHostIOSaveLoadAfterPoolsCycle(t *testing.T) {
	const deadline = 50 * sim.Millisecond
	engine, host, vm, dev := buildIOSnapScenario(t)
	seen := map[string]bool{}
	for probe := sim.Time(0); ; probe += 2 * sim.Microsecond {
		engine.RunUntil(probe)
		if done, _ := vm.WorkloadDone(); done || probe > deadline {
			break
		}
		if dev.Ops() <= 8 {
			continue // the first requests are still fresh allocations
		}
		c := vm.Counters()
		var stages []string
		if dev.Inflight() > 0 {
			stages = append(stages, "running")
		}
		if dev.QueuedWaiting() > 0 {
			stages = append(stages, "waiting")
		}
		if dev.Ops() > c.IOReads+c.IOWrites {
			stages = append(stages, "completed")
		}
		for _, p := range host.PCPUs() {
			if p.phase.inFlight() && p.current.gcpu.Issued().Req != nil {
				stages = append(stages, "segment")
				break
			}
		}
		buf := saveHost(t, engine, host)
		e2, h2, vm2, _ := buildIOSnapScenario(t)
		restoreHost(t, buf, e2, h2)
		if again := saveHost(t, e2, h2); !bytes.Equal(buf, again) {
			t.Fatalf("restore-then-resave at %v (%v) diverged: %d vs %d bytes", probe, stages, len(buf), len(again))
		}
		fresh := false
		for _, st := range stages {
			fresh = fresh || !seen[st]
			seen[st] = true
		}
		if !fresh {
			continue
		}
		// A straight-through copy of the source, never checkpointed.
		e1, h1, vm1, _ := buildIOSnapScenario(t)
		e1.RunUntil(probe)
		e1.RunUntil(deadline)
		e2.RunUntil(deadline)
		done1, at1 := vm1.WorkloadDone()
		done2, at2 := vm2.WorkloadDone()
		if !done1 || !done2 || at1 != at2 {
			t.Fatalf("restored at %v (%v): completion %v@%v vs %v@%v", probe, stages, done1, at1, done2, at2)
		}
		if !bytes.Equal(saveHost(t, e1, h1), saveHost(t, e2, h2)) {
			t.Fatalf("restored at %v (%v): final states diverged", probe, stages)
		}
	}
	for _, st := range []string{"running", "waiting", "completed", "segment"} {
		if !seen[st] {
			t.Errorf("no probe caught a request in stage %q; the sweep is vacuous there", st)
		}
	}
	if done, _ := vm.WorkloadDone(); !done {
		t.Fatal("fixture workload never completed")
	}
}
