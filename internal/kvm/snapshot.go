package kvm

// Checkpoint/restore of the full hypervisor state. The protocol mirrors
// the guest layer's: the scenario is rebuilt from its spec first (which
// recreates every object, closure, and pre-bound handler), the engine is
// reset and restored, and then decoding Host.Snap overwrites the rebuilt
// state with the snapshot's — re-arming every pending host-side event
// (segment completions, halt polls, wake delays, host ticks, guest/top-up
// timers) at its original (when, seq) coordinates.
//
// Closures are never serialized. The in-flight segment on a pCPU is not
// encoded either: it is, by construction, the current vCPU's issued guest
// segment (set by exec via gcpu.Next and restored by the guest kernel), so
// restore re-links the pointer. A segment is plain data — what finishing it
// means travels as its guest-side owners, acted on when the pCPU hands it
// back through gcpu.Return — so the only code-shaped state left is a
// pending segment-completion event, encoded as the index of its label and
// resolved back to the pCPU's pre-bound handler.

import (
	"fmt"
	"slices"

	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// segDoneLabels lists, by handler kind, the labels exec schedules a pCPU's
// segment-completion event with. A pending event moves as the kind — the
// index of its label — which selects the matching pre-bound handler on
// restore (see segDoneFn).
var segDoneLabels = [...]string{"pcpu-run", "pcpu-exit", "pcpu-hlt", "pcpu-irq-exit"}

// segDoneFn returns the pre-bound handler for a segment-event kind.
func (p *PCPU) segDoneFn(kind uint8) sim.Handler {
	return [...]sim.Handler{p.runDoneFn, p.exitDoneFn, p.hltDoneFn, p.irqDoneFn}[kind]
}

// Snap moves the complete hypervisor state: every VM (counters, vCPUs,
// guest kernel), the scheduler queues, every pCPU's run state, and the
// tracer. The engine coordinator must move first (sim.ShardedEngine.Snap),
// since restore needs its clock before any event re-arms; decoding targets
// a host freshly rebuilt from the same scenario spec — identical topology,
// VM shapes, device attachments, and spawn order.
func (h *Host) Snap(s *snap.Stream) {
	s.Section("kvm-host")
	s.Len(len(h.pcpus), "pCPUs")
	s.Len(len(h.vms), "VMs")
	iov, key := h.nextIOVector, h.nextSchedKey
	snap.Int(s, &iov)
	s.U64(&key)
	if iov != h.nextIOVector || key != h.nextSchedKey {
		s.Failf("kvm: snapshot allocator state (vector %d, key %d) does not match rebuilt host (vector %d, key %d) — scenario shape mismatch",
			iov, key, h.nextIOVector, h.nextSchedKey)
	}
	for _, vm := range h.vms {
		vm.snap(s)
	}
	h.sched.Snap(s, h.entityByKey)
	for _, p := range h.pcpus {
		p.snap(s)
	}
	h.tracer.Snap(s)
	if h.se.Quantum() > 0 {
		h.snapSharded(s)
	}
}

// Save encodes the host state; see Snap.
func (h *Host) Save(enc *snap.Encoder) error { return snap.Encode(enc, h) }

// Load decodes state written by Save; see Snap.
func (h *Host) Load(dec *snap.Decoder) error { return snap.Decode(dec, h) }

// vcpuByKey resolves a scheduler key to its vCPU, or nil.
func (h *Host) vcpuByKey(key uint64) *VCPU {
	for _, vm := range h.vms {
		for _, v := range vm.vcpus {
			if v.node.Key == key {
				return v
			}
		}
	}
	return nil
}

// entityByKey is vcpuByKey typed as the scheduler's restore lookup.
func (h *Host) entityByKey(key uint64) sched.Entity {
	if v := h.vcpuByKey(key); v != nil {
		return v
	}
	return nil
}

// snapSharded moves the lane-mode extras: per-lane trace rings, in-flight
// remote-IRQ deliveries, and IPI stream positions. The section only exists
// for lane-mode hosts (a positive quantum), so legacy checkpoint bytes are
// byte-for-byte unchanged.
func (h *Host) snapSharded(s *snap.Stream) {
	s.Section("kvm-sharded")
	traced := h.laneTracers != nil
	s.Bool(&traced)
	if traced != (h.laneTracers != nil) {
		s.Failf("kvm: snapshot per-lane tracing (%v) does not match the rebuilt host (%v)", traced, !traced)
	}
	for _, t := range h.laneTracers {
		t.Snap(s)
	}
	s.Len(len(h.inflight), "remote-IRQ lanes")
	for lane := range h.inflight {
		list := &h.inflight[lane]
		for i := range snap.Slice(s, list) {
			if (*list)[i] == nil {
				(*list)[i] = h.newRemoteIRQ(lane)
			}
			h.snapRemoteIRQ(s, lane, (*list)[i])
		}
	}
	s.Len(len(h.streams), "IPI streams")
	for _, st := range h.streams {
		s.U64(&st.sent)
		sim.SnapEvent(s, st.src.engine, &st.ev, "ipi-stream", st.fn)
	}
}

// snapRemoteIRQ moves one in-flight cross-lane delivery on the given
// destination lane; decoding re-arms it there.
func (h *Host) snapRemoteIRQ(s *snap.Stream, lane int, r *remoteIRQ) {
	snap.Int(s, &r.vm)
	snap.Int(s, &r.vcpu)
	snap.Int(s, &r.vec)
	if r.vm < 0 || r.vm >= len(h.vms) {
		s.Failf("kvm: snapshot remote IRQ targets unknown VM %d", r.vm)
		return
	}
	vm := h.vms[r.vm]
	if r.vcpu < 0 || r.vcpu >= len(vm.vcpus) || vm.lane != lane {
		s.Failf("kvm: snapshot remote IRQ on lane %d targets vCPU %d of VM %q", lane, r.vcpu, vm.name)
		return
	}
	sim.SnapArmed(s, vm.engine, &r.ev, "remote-irq", r.fire)
}

func (vm *VM) snap(s *snap.Stream) {
	s.Section("vm:" + vm.name)
	snap.Int(s, &vm.declaredTickHz)
	s.Bool(&vm.started)
	s.Bool(&vm.workloadDone)
	snap.Int(s, &vm.doneAt)
	vm.counters.Snap(s)
	s.Len(len(vm.vcpus), "vCPUs in a VM")
	for _, v := range vm.vcpus {
		v.snap(s)
	}
	vm.kernel.Snap(s)
}

func (v *VCPU) snap(s *snap.Stream) {
	snap.Byte(s, &v.state)
	if v.state < VCPUStopped || v.state > VCPUHalted {
		s.Failf("kvm: snapshot vCPU %s/%d has invalid state %d", v.vm.name, v.id, v.state)
	}
	pcpu := int(v.pcpu.id)
	snap.Int(s, &pcpu)
	if pcpu < 0 || pcpu >= len(v.vm.host.pcpus) {
		s.Failf("kvm: snapshot vCPU %s/%d homed on invalid pCPU %d", v.vm.name, v.id, pcpu)
	} else if s.Decoding() {
		v.pcpu = v.vm.host.pcpus[pcpu]
	}
	v.node.Snap(s)
	snap.Int(s, &v.lastVirtualTick)
	snap.Int(s, &v.sliceStart)
	for i := range snap.Slice(s, &v.pending) {
		snap.Int(s, &v.pending[i].vec)
		snap.Int(s, &v.pending[i].since)
	}
	v.guestTimer.Snap(s)
	v.topUpTimer.Snap(s)
}

func (p *PCPU) snap(s *snap.Stream) {
	s.Section(fmt.Sprintf("pcpu:%d", p.id))
	p.tick.Snap(s)

	// The running vCPU moves as its scheduler key.
	current := p.current != nil
	var key uint64
	if current {
		key = p.current.node.Key
	}
	s.Bool(&current)
	if current {
		s.U64(&key)
	}
	if s.Decoding() {
		p.current = nil
		if current {
			if p.current = p.host.vcpuByKey(key); p.current == nil {
				s.Failf("kvm: snapshot pCPU %d runs unknown vCPU key %d", p.id, key)
			}
		}
	}

	inFlight := p.seg != nil
	s.Bool(&inFlight)
	if s.Decoding() {
		p.seg = p.relinkSegment(s, inFlight)
	}

	pending := p.segEvent.Pending()
	s.Bool(&pending)
	if pending {
		kind := uint8(slices.Index(segDoneLabels[:], p.segEvent.Label()))
		s.U8(&kind)
		if int(kind) >= len(segDoneLabels) {
			s.Failf("kvm: snapshot pCPU %d has unknown segment-event kind %d", p.id, kind)
		} else {
			sim.SnapArmed(s, p.engine, &p.segEvent, segDoneLabels[kind], p.segDoneFn(kind))
		}
	}
	snap.Int(s, &p.segStart)
	s.Bool(&p.polling)
	snap.Int(s, &p.pollStart)
	sim.SnapEvent(s, p.engine, &p.pollEvent, "pcpu-poll", p.pollDoneFn)
	s.Bool(&p.dispatchPending)
	sim.SnapEvent(s, p.engine, &p.wakeEvent, "pcpu-wakeup", p.wakeupFn)
	s.Bool(&p.irqExpire)
}

// relinkSegment resolves a restored pCPU's in-flight segment: the current
// vCPU's issued guest segment, which the guest kernel has already restored.
func (p *PCPU) relinkSegment(s *snap.Stream, inFlight bool) *guestSegment {
	if !inFlight || s.Err() != nil {
		return nil
	}
	if p.current == nil {
		s.Failf("kvm: snapshot pCPU %d has an in-flight segment but no current vCPU", p.id)
		return nil
	}
	seg := p.current.gcpu.Issued()
	if seg == nil {
		s.Failf("kvm: snapshot pCPU %d expects an issued segment on %s/%d, guest restored none",
			p.id, p.current.vm.name, p.current.id)
	}
	return seg
}
