package kvm

// Checkpoint/restore of the full hypervisor state. The protocol mirrors
// the guest layer's: the scenario is rebuilt from its spec first (which
// recreates every object, closure, and pre-bound handler), the engine is
// reset and restored, and then decoding Host.Snap overwrites the rebuilt
// state with the snapshot's — re-arming every pending host-side event
// (segment completions, halt polls, wake delays, host ticks, guest/top-up
// timers) at its original (when, seq) coordinates.
//
// Closures are never serialized. A pCPU's run state is one phase, its
// single pending completion, whose event re-arms the pCPU's one pre-bound
// handler; the handler dispatches on the phase. The in-flight segment is
// not encoded: in the run, exit and HLT phases it is, by construction, the
// current vCPU's issued guest segment (set by exec via gcpu.Next and
// restored by the guest kernel). A segment is plain data — what finishing
// it means travels as its guest-side owners, acted on when the pCPU hands
// it back through gcpu.Return. Decoding refuses a pCPU record whose flags,
// events, in-flight bit, current vCPU and issued segment contradict the
// one phase they were derived from.

import (
	"fmt"

	"paratick/internal/guest"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

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

// snap moves a pCPU's run state. The record spells the phase out as the
// in-flight bit, a segment-completion event with its kind (run, exit, HLT,
// interrupt exit), the poll flag and event, the dispatch flag and wake
// event, and the rotate flag; decoding rebuilds the phase from them.
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
		// A rebuilt world's Start left dead completion handles behind.
		p.current, p.phase = nil, phaseNone
		if current {
			if p.current = p.host.vcpuByKey(key); p.current == nil {
				s.Failf("kvm: snapshot pCPU %d runs unknown vCPU key %d", p.id, key)
			}
		}
	}

	inFlight := p.phase.inFlight()
	s.Bool(&inFlight)
	pending := p.phase >= phaseRun && p.phase <= phaseIRQRotate
	s.Bool(&pending)
	if pending {
		kind := uint8(min(p.phase, phaseIRQ) - phaseRun) // both interrupt exits move as one kind
		s.U8(&kind)
		if kind > uint8(phaseIRQ-phaseRun) {
			s.Failf("kvm: snapshot pCPU %d has unknown segment-event kind %d", p.id, kind)
			return
		}
		p.snapDone(s, phaseRun+phase(kind))
	}
	snap.Int(s, &p.segStart)
	polling := p.phase == phasePoll
	s.Bool(&polling)
	snap.Int(s, &p.pollStart)
	p.snapFlagged(s, phasePoll, polling)
	waking := p.phase == phaseWake
	s.Bool(&waking)
	p.snapFlagged(s, phaseWake, waking)
	rotate := p.phase == phaseIRQRotate
	s.Bool(&rotate)
	if !s.Decoding() || s.Err() != nil {
		return
	}
	// Older writers left the rotate flag set after every rotation;
	// without an interrupt exit pending it means nothing.
	if rotate && p.phase == phaseIRQ {
		p.phase = phaseIRQRotate
	}
	p.checkPhase(s, inFlight)
}

// inFlight reports whether the phase executes or handles a guest segment:
// the current vCPU's issued one.
func (ph phase) inFlight() bool { return ph >= phaseRun && ph <= phaseHLT }

// snapFlagged moves the poll or wake completion, ph, whose presence the
// record also carries as a flag; decoding refuses a flag that disagrees
// with its event.
func (p *PCPU) snapFlagged(s *snap.Stream, ph phase, flag bool) {
	pending := p.phase == ph
	s.Bool(&pending)
	if pending != flag {
		s.Failf("kvm: snapshot pCPU %d has %s flag %v but event pending %v", p.id, phaseLabels[ph], flag, pending)
		return
	}
	if pending {
		p.snapDone(s, ph)
	}
}

// snapDone moves the pending completion's coordinates; decoding re-arms it
// as phase ph and refuses a second pending completion.
func (p *PCPU) snapDone(s *snap.Stream, ph phase) {
	if s.Decoding() {
		if p.phase != phaseNone {
			s.Failf("kvm: snapshot pCPU %d has both %s and %s pending", p.id, phaseLabels[p.phase], phaseLabels[ph])
			return
		}
		p.phase = ph
	}
	sim.SnapArmed(s, p.engine, &p.done, phaseLabels[ph], p.doneFn)
}

// checkPhase refuses a decoded phase the rest of the record contradicts:
// the in-flight bit, the current vCPU, or the kind of the vCPU's issued
// segment, which the guest kernel has already restored.
func (p *PCPU) checkPhase(s *snap.Stream, inFlight bool) {
	ph := p.phase
	switch {
	case inFlight != ph.inFlight():
		s.Failf("kvm: snapshot pCPU %d has in-flight bit %v with %q pending", p.id, inFlight, phaseLabels[ph])
	case (ph == phaseNone || ph == phaseWake) != (p.current == nil):
		s.Failf("kvm: snapshot pCPU %d with %q pending has a current vCPU: %v", p.id, phaseLabels[ph], p.current != nil)
	case inFlight:
		seg := p.current.gcpu.Issued()
		if seg == nil {
			s.Failf("kvm: snapshot pCPU %d expects an issued segment on %s/%d, guest restored none",
				p.id, p.current.vm.name, p.current.id)
		} else if (seg.Kind == guest.SegRun) != (ph == phaseRun) || (seg.Kind == guest.SegHLT) != (ph == phaseHLT) {
			s.Failf("kvm: snapshot pCPU %d has %s pending for a %v segment", p.id, phaseLabels[ph], seg.Kind)
		}
	}
}
