package kvm

import (
	"bytes"
	"fmt"
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// pcpuRecord holds the offsets of one encoded pCPU record's fields in a
// saved world, read by following the layout PCPU.snap writes (pinned by
// the committed reference checkpoints). kind and key are -1 when absent.
type pcpuRecord struct {
	current, key, inFlight, kind int
	polling, dispatch, wakeEvent int
	rotate                       int
}

// findPCPURecord locates pCPU id's record in buf.
func findPCPURecord(t *testing.T, buf []byte, id int) pcpuRecord {
	t.Helper()
	name := fmt.Sprintf("pcpu:%d", id)
	var marker snap.Encoder
	marker.Section(name)
	off := bytes.Index(buf, marker.Bytes())
	if off < 0 {
		t.Fatalf("no %s section in the saved world", name)
	}
	d := snap.NewDecoder(buf[off:])
	pos := func() int { return len(buf) - d.Remaining() }
	event := func() { // a SnapEvent: presence, then (when, seq)
		if d.Bool() {
			d.I64()
			d.U64()
		}
	}
	r := pcpuRecord{key: -1, kind: -1}
	d.Section(name)
	d.Section("ptimer:host-tick")
	d.I64() // period
	d.U64() // ticks
	event()
	r.current = pos()
	if d.Bool() {
		r.key = pos()
		d.U64()
	}
	r.inFlight = pos()
	d.Bool()
	if d.Bool() { // a segment completion: kind, when, seq
		r.kind = pos()
		d.U8()
		d.I64()
		d.U64()
	}
	d.I64() // segStart
	r.polling = pos()
	d.Bool()
	d.I64() // pollStart
	event()
	r.dispatch = pos()
	d.Bool()
	r.wakeEvent = pos()
	event()
	r.rotate = pos()
	d.Bool()
	if err := d.Err(); err != nil {
		t.Fatalf("reading the %s record: %v", name, err)
	}
	return r
}

// freezeInPhase steps a fresh halt-poll fixture until pCPU 0 has phase ph
// pending, then saves the world.
func freezeInPhase(t *testing.T, ph phase) []byte {
	t.Helper()
	engine, host, _ := buildSnapScenario(t, sched.FIFO)
	for host.pcpus[0].phase != ph {
		if !engine.Step() {
			t.Fatalf("fixture drained before pCPU 0 reached %q", phaseLabels[ph])
		}
	}
	return saveHost(t, engine, host)
}

// loadHost decodes a saved world into a rebuilt fixture, returning the
// decode error instead of failing.
func loadHost(t *testing.T, buf []byte) (*sim.Engine, *Host, *VM, error) {
	t.Helper()
	e, h, vm := buildSnapScenario(t, sched.FIFO)
	e.Reset(0)
	s := snap.NewReader(snap.NewDecoder(buf))
	e.Snap(s)
	h.Snap(s)
	return e, h, vm, s.Err()
}

// splice returns buf with n bytes at off replaced by ins.
func splice(buf []byte, off, n int, ins ...byte) []byte {
	out := append([]byte(nil), buf[:off]...)
	out = append(out, ins...)
	return append(out, buf[off+n:]...)
}

// TestSnapshotRejectsContradictoryPCPU corrupts one encoded pCPU record per
// case so that its flags, events, in-flight bit, current vCPU and issued
// segment contradict each other. Every case must fail to decode with an
// error, never decode into a stranded or panicking world. A stale rotate
// flag, which older writers left set after every rotation, must still load
// and run to completion; an uncorrupted control must round-trip.
func TestSnapshotRejectsContradictoryPCPU(t *testing.T) {
	set := func(buf []byte, off int, v byte) []byte {
		out := append([]byte(nil), buf...)
		out[off] = v
		return out
	}
	for _, tc := range []struct {
		name    string
		phase   phase
		corrupt func(buf []byte, r pcpuRecord) []byte
	}{
		{"dispatch flag without wake event", phaseNone, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.dispatch, 1)
		}},
		{"exit completion relabeled as run", phaseExit, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.kind, 0)
		}},
		{"poll flag without poll event", phaseNone, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.polling, 1)
		}},
		{"poll event without poll flag", phasePoll, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.polling, 0)
		}},
		{"segment completion plus wake event", phaseRun, func(b []byte, r pcpuRecord) []byte {
			coords := b[r.kind+1 : r.kind+17] // the run completion's (when, seq)
			b = splice(b, r.wakeEvent, 1, append([]byte{1}, coords...)...)
			return set(b, r.dispatch, 1)
		}},
		{"poll completion without current vCPU", phasePoll, func(b []byte, r pcpuRecord) []byte {
			b = splice(b, r.key, 8)
			return set(b, r.current, 0)
		}},
		{"in-flight bit set while idle", phaseNone, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.inFlight, 1)
		}},
		{"in-flight bit clear while running", phaseRun, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.inFlight, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := freezeInPhase(t, tc.phase)
			bad := tc.corrupt(buf, findPCPURecord(t, buf, 0))
			if _, _, _, err := loadHost(t, bad); err == nil {
				t.Fatal("contradictory pCPU record decoded without error")
			} else {
				t.Logf("refused: %v", err)
			}
		})
	}

	t.Run("stale rotate flag", func(t *testing.T) {
		buf := freezeInPhase(t, phaseRun)
		r := findPCPURecord(t, buf, 0)
		e, h, vm, err := loadHost(t, set(buf, r.rotate, 1))
		if err != nil {
			t.Fatalf("stale rotate flag refused: %v", err)
		}
		if again := saveHost(t, e, h); !bytes.Equal(again, buf) {
			t.Fatal("a stale rotate flag survived into the re-encoded record")
		}
		e.RunUntil(50 * sim.Millisecond)
		if done, _ := vm.WorkloadDone(); !done {
			t.Fatal("world restored with a stale rotate flag never finished its workload")
		}
	})

	t.Run("control", func(t *testing.T) {
		buf := freezeInPhase(t, phaseExit)
		e, h, _, err := loadHost(t, buf)
		if err != nil {
			t.Fatal(err)
		}
		if again := saveHost(t, e, h); !bytes.Equal(again, buf) {
			t.Fatal("uncorrupted world did not round-trip")
		}
	})
}

// buildOvercommitSnapScenario constructs a time-sharing fixture: two
// compute-bound periodic-tick vCPUs on pCPU 0 with 500 µs timeslices and a
// 20 µs halt-poll window, each task sleeping briefly between bursts, so the
// pCPU rotates vCPUs on expired slices, polls, and goes idle.
func buildOvercommitSnapScenario(t *testing.T) (*sim.Engine, *Host, *VM) {
	t.Helper()
	engine := sim.NewEngine(77)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	cfg.Timeslice = 500 * sim.Microsecond
	cfg.HaltPoll = 20 * sim.Microsecond
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	gcfg.Mode = core.Periodic
	vm, err := host.NewVM("oc", gcfg, []hw.CPUID{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	k := vm.Kernel()
	for i := 0; i < 2; i++ {
		var steps []guest.Step
		for j := 0; j < 4; j++ {
			steps = append(steps,
				guest.Compute(sim.Time(4+i)*sim.Millisecond),
				guest.Sleep(sim.Time(300+100*i)*sim.Microsecond))
		}
		k.Spawn(fmt.Sprintf("burst%d", i), i, guest.Steps(steps...))
	}
	vm.OnWorkloadDone = func(sim.Time) { engine.Stop() }
	vm.Start()
	return engine, host, vm
}

// TestHostSnapshotEveryPhase freezes the halt-poll and overcommit fixtures
// after every event batch until their workloads finish. Each freeze must
// decode into a rebuilt world and re-encode to the same bytes, and across
// the sweep every pCPU phase must have been frozen at least once — the
// strict decoder must accept every state the run loop can reach.
func TestHostSnapshotEveryPhase(t *testing.T) {
	seen := make(map[phase]int)
	for _, fx := range []struct {
		name  string
		build func(*testing.T) (*sim.Engine, *Host, *VM)
	}{
		{"halt-poll", func(t *testing.T) (*sim.Engine, *Host, *VM) { return buildSnapScenario(t, sched.FIFO) }},
		{"overcommit", buildOvercommitSnapScenario},
	} {
		engine, host, vm := fx.build(t)
		for {
			if done, _ := vm.WorkloadDone(); done {
				break
			}
			if engine.Now() > 100*sim.Millisecond || engine.StepBatch() == 0 {
				t.Fatalf("%s: workload did not finish", fx.name)
			}
			for _, p := range host.pcpus {
				seen[p.phase]++
			}
			buf := saveHost(t, engine, host)
			e2, h2, _ := fx.build(t)
			restoreHost(t, buf, e2, h2)
			if again := saveHost(t, e2, h2); !bytes.Equal(buf, again) {
				t.Fatalf("%s: freeze at %v did not re-encode to the same bytes", fx.name, engine.Now())
			}
		}
	}
	for ph := phaseNone; ph <= phaseWake; ph++ {
		if seen[ph] == 0 {
			t.Errorf("no freeze caught a pCPU in phase %d (%q)", ph, phaseLabels[ph])
		}
	}
	t.Logf("pCPU phases frozen: %v", seen)
}
