package kvm

// Checkpoint/restore of the full hypervisor state. The protocol mirrors
// the guest layer's: the scenario is rebuilt from its spec first (which
// recreates every object, closure, and pre-bound handler), the engine is
// reset and restored, and then decoding Host.Snap overwrites the rebuilt
// state with the snapshot's — re-arming every pending host-side event at
// its original (when, seq) coordinates. Closures are never serialized.
//
// A pCPU record is its phase: what else it holds follows from the phase.
// The in-flight segment of the run, exit and HLT phases is the current
// vCPU's issued guest segment, restored by the guest kernel.

import (
	"strconv"

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
	var queued []*VCPU // the vCPUs the scheduler queues hold, when decoding
	h.sched.Snap(s, func(key uint64) sched.Entity {
		if v := h.vcpuByKey(key); v != nil {
			queued = append(queued, v)
			return v
		}
		return nil
	})
	for _, p := range h.pcpus {
		p.snap(s)
	}
	if s.Decoding() && s.Err() == nil {
		h.checkPlacement(s, queued)
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

// checkPlacement refuses a decoded host whose vCPUs sit where the run loop
// never puts them: a vCPU is queued at most once, current on at most one
// pCPU — its home — and never both, and its state is one its placement
// allows. queued lists the vCPUs the scheduler queues hold.
func (h *Host) checkPlacement(s *snap.Stream, queued []*VCPU) {
	for _, vm := range h.vms {
		for _, v := range vm.vcpus {
			n, cur, home := 0, 0, v.pcpu.current == v
			for _, q := range queued {
				if q == v {
					n++
				}
			}
			for _, p := range h.pcpus {
				if p.current == v {
					cur++
				}
			}
			if n+cur > 1 || cur == 1 && !home || !v.placedAs(n == 1, cur == 1) {
				s.Failf("kvm: snapshot vCPU %s/%d is %v, queued %d times and current on %d pCPUs (on its home pCPU %d: %v)",
					vm.name, v.id, v.state, n, cur, v.pcpu.id, home)
			}
		}
	}
}

// placedAs reports whether v's state is one its placement allows: queued
// means runnable; current means running, or halted in its pCPU's poll
// window, which keeps it current until a wake or the window's end; neither
// means halted or not yet started.
func (v *VCPU) placedAs(queued, current bool) bool {
	switch {
	case queued:
		return v.state == VCPURunnable
	case current && v.pcpu.phase == phasePoll:
		return v.state == VCPUHalted
	case current:
		return v.state == VCPURunning
	}
	return v.state == VCPUHalted || v.state == VCPUStopped
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
	snap.Byte(s, &v.state) // checkPlacement refuses a state its placement rules out
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

// snap moves a pCPU's run state: its phase, then what the phase has — the
// pending completion's coordinates, the current vCPU's scheduler key, and
// the instant the running segment or poll window began.
func (p *PCPU) snap(s *snap.Stream) {
	s.Section("pcpu:" + strconv.Itoa(int(p.id)))
	p.tick.Snap(s)
	snap.Byte(s, &p.phase)
	if p.phase > phaseWake {
		s.Failf("kvm: snapshot pCPU %d has unknown phase %d", p.id, p.phase)
		return
	}
	if p.phase != phaseNone {
		sim.SnapArmed(s, p.engine, &p.done, phaseLabels[p.phase], p.doneFn)
	}
	if p.phase.hasCurrent() {
		var key uint64
		if p.current != nil {
			key = p.current.node.Key
		}
		s.U64(&key)
		if s.Decoding() {
			if p.current = p.host.vcpuByKey(key); p.current == nil {
				s.Failf("kvm: snapshot pCPU %d runs unknown vCPU key %d", p.id, key)
			}
		}
	} else if s.Decoding() {
		p.current = nil
	}
	if p.phase == phaseRun || p.phase == phasePoll {
		snap.Int(s, &p.since)
	}
	if !s.Decoding() || s.Err() != nil || !p.phase.inFlight() {
		return
	}
	// The guest kernel has restored the issued segment: run needs SegRun,
	// hlt SegHLT, exit any other kind.
	if seg := p.current.gcpu.Issued(); seg == nil {
		s.Failf("kvm: snapshot pCPU %d expects an issued segment on %s/%d, guest restored none",
			p.id, p.current.vm.name, p.current.id)
	} else if (seg.Kind == guest.SegRun) != (p.phase == phaseRun) || (seg.Kind == guest.SegHLT) != (p.phase == phaseHLT) {
		s.Failf("kvm: snapshot pCPU %d has %s pending for a %v segment", p.id, phaseLabels[p.phase], seg.Kind)
	}
}

// hasCurrent reports whether the phase runs on behalf of a current vCPU:
// every phase but none and the wake delay.
func (ph phase) hasCurrent() bool { return ph != phaseNone && ph != phaseWake }

// inFlight reports whether the phase executes or handles a guest segment:
// the current vCPU's issued one.
func (ph phase) inFlight() bool { return ph >= phaseRun && ph <= phaseHLT }
