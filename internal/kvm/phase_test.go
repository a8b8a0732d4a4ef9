package kvm

import (
	"bytes"
	"fmt"
	"strings"
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
// the committed reference checkpoints): the phase byte, the pending
// completion's (when, seq) and the current vCPU's key (-1 when the phase
// has none), and the first byte past the record.
type pcpuRecord struct {
	phase, when, key, end int
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
	r := pcpuRecord{when: -1, key: -1}
	d.Section(name)
	d.Section("ptimer:host-tick")
	d.I64() // period
	d.U64() // ticks
	if d.Bool() {
		d.I64()
		d.U64()
	}
	r.phase = pos()
	ph := phase(d.U8())
	if ph != phaseNone {
		r.when = pos()
		d.I64()
		d.U64()
	}
	if ph.hasCurrent() {
		r.key = pos()
		d.U64()
	}
	if ph == phaseRun || ph == phasePoll {
		d.I64() // since
	}
	r.end = pos()
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
// case: a phase byte no phase has, a current vCPU the host does not have,
// and a phase relabeled so that it no longer fits the kind of the current
// vCPU's issued segment (its record resized to the new phase's layout).
// Every case must fail to decode with an error, never decode into a
// stranded or panicking world; an uncorrupted control must round-trip.
func TestSnapshotRejectsContradictoryPCPU(t *testing.T) {
	set := func(buf []byte, off int, v ...byte) []byte {
		out := append([]byte(nil), buf...)
		copy(out[off:], v)
		return out
	}
	for _, tc := range []struct {
		name, want string
		phase      phase
		corrupt    func(buf []byte, r pcpuRecord) []byte
	}{
		{"unknown phase byte", "unknown phase 8", phaseNone, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.phase, byte(phaseWake+1))
		}},
		{"unknown current key", "unknown vCPU key", phaseRun, func(b []byte, r pcpuRecord) []byte {
			return set(b, r.key, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
		}},
		{"exit completion relabeled as run", "pcpu-run pending for a", phaseExit, func(b []byte, r pcpuRecord) []byte {
			b = splice(b, r.end, 0, make([]byte, 8)...) // the run phase's start
			return set(b, r.phase, byte(phaseRun))
		}},
		{"run completion relabeled as hlt", "pcpu-hlt pending for a run segment", phaseRun, func(b []byte, r pcpuRecord) []byte {
			b = splice(b, r.end-8, 8) // the run phase's start
			return set(b, r.phase, byte(phaseHLT))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := freezeInPhase(t, tc.phase)
			bad := tc.corrupt(buf, findPCPURecord(t, buf, 0))
			if _, _, _, err := loadHost(t, bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode err = %v, want one containing %q", err, tc.want)
			}
		})
	}

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

// TestSnapshotRejectsMisplacedVCPU saves the halt-poll fixture, whose two
// vCPUs share pCPU 0, at its first run phase — vCPU 0 current, vCPU 1
// queued — after moving a vCPU somewhere the run loop never puts one. Each
// case must fail to decode with an error naming the misplacement.
func TestSnapshotRejectsMisplacedVCPU(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		move       func(h *Host, cur, queued *VCPU)
	}{
		{"runnable vCPU queued twice", "snap/1 is runnable, queued 2 times", func(h *Host, _, q *VCPU) {
			h.sched.Enqueue(0, q, 0)
		}},
		{"runnable vCPU not queued", "snap/1 is runnable, queued 0 times", func(h *Host, _, _ *VCPU) {
			h.sched.PickNext(0, 0)
		}},
		{"vCPU current on two pCPUs", "snap/0 is running, queued 0 times and current on 2 pCPUs", func(h *Host, cur, _ *VCPU) {
			p := h.pcpus[1]
			p.current = cur
			p.await(phaseRun, sim.Microsecond)
		}},
		{"vCPU current away from home", "current on 1 pCPUs (on its home pCPU 1: false)", func(h *Host, cur, _ *VCPU) {
			cur.pcpu = h.pcpus[1]
		}},
		{"vCPU both current and queued", "snap/0 is running, queued 1 times and current on 1 pCPUs", func(h *Host, cur, _ *VCPU) {
			h.sched.Enqueue(0, cur, 0)
		}},
		{"current vCPU halted outside a poll window", "snap/0 is halted, queued 0 times and current on 1 pCPUs", func(_ *Host, cur, _ *VCPU) {
			cur.state = VCPUHalted
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine, host, vm := buildSnapScenario(t, sched.FIFO)
			for host.pcpus[0].phase != phaseRun {
				if !engine.Step() {
					t.Fatal("fixture drained before its first run phase")
				}
			}
			cur, queued := vm.vcpus[0], vm.vcpus[1]
			if host.pcpus[0].current != cur || queued.state != VCPURunnable {
				t.Fatalf("fixture: pCPU 0 runs %v, vCPU 1 is %v", host.pcpus[0].current, queued.state)
			}
			tc.move(host, cur, queued)
			if _, _, _, err := loadHost(t, saveHost(t, engine, host)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode err = %v, want one containing %q", err, tc.want)
			}
		})
	}
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
