package kvm

import (
	"fmt"

	"paratick/internal/hw"
	"paratick/internal/sim"
)

// Cross-lane interrupts. With the host sharded one lane per socket, a VM
// is contained on one socket and everything it does stays on its lane —
// except doorbell-style IPIs between VMs (the vhost/virtio kick pattern:
// one VM's backend thread notifying another VM's queue). Those travel as
// sim.Messages through the quantum-barrier mailboxes: posted on the
// source lane, drained by the coordinator at the barrier in fixed order,
// then armed as a normal event on the destination lane's engine.
//
// The payload is pure data (VM index, vCPU index, vector), never a
// closure, so a checkpoint taken while a delivery is in flight can
// serialize it and restore re-arms it — see Host.snapRemoteIRQ.

// remoteIRQ is one in-flight cross-lane interrupt delivery: drained from
// the mailbox, waiting on the destination lane's engine to fire. Records
// are recycled through the destination lane's Host.freeIRQ pool, each
// keeping its pre-bound fire handler.
type remoteIRQ struct {
	vm, vcpu int
	vec      hw.Vector
	ev       sim.Event
	//snap:skip pre-bound handler, created with the record
	fire sim.Handler
}

// newRemoteIRQ returns a blank delivery record for the given destination
// lane, recycling one that fired there when it can. Its fire handler
// unregisters the delivery, pends the interrupt on the destination vCPU,
// and returns the record to the lane's pool. Pools are per lane because
// handlers fire on lane goroutines; only the coordinator, with every lane
// parked, takes from them.
//
//paratick:noalloc
func (h *Host) newRemoteIRQ(lane int) *remoteIRQ {
	free := h.freeIRQ[lane]
	if n := len(free); n > 0 {
		r := free[n-1]
		free[n-1] = nil
		h.freeIRQ[lane] = free[:n-1]
		return r
	}
	//lint:ignore A001 pool miss: one record per concurrently in-flight delivery, absent in steady state
	r := new(remoteIRQ)
	//lint:ignore A001 bound once per record; recycled records keep it
	r.fire = func(*sim.Engine) { h.fireRemoteIRQ(r) }
	return r
}

// fireRemoteIRQ is a delivery's fire handler: unregister it, pend the
// interrupt on the destination vCPU, and recycle the record.
//
//paratick:noalloc
func (h *Host) fireRemoteIRQ(r *remoteIRQ) {
	vm := h.vms[r.vm]
	h.dropInflight(vm.lane, r)
	//lint:ignore A001 interrupt injection runs the vCPU's wake or exit path, the run loop's own steady state
	vm.vcpus[r.vcpu].pendIRQ(r.vec)
	h.releaseRemoteIRQ(vm.lane, r)
}

// releaseRemoteIRQ returns a delivery record to its lane's pool, keeping
// only its fire handler.
//
//paratick:noalloc
func (h *Host) releaseRemoteIRQ(lane int, r *remoteIRQ) {
	*r = remoteIRQ{fire: r.fire}
	h.freeIRQ[lane] = append(h.freeIRQ[lane], r)
}

// deliverRemoteIRQ is the barrier-drain hook: it runs on the coordinator
// with every lane parked, arms the interrupt on the destination lane's
// engine, and tracks it as in flight until it fires.
//
//paratick:noalloc
func (h *Host) deliverRemoteIRQ(m sim.Message) {
	vm := h.vms[m.A]
	r := h.newRemoteIRQ(vm.lane)
	r.vm, r.vcpu, r.vec = int(m.A), int(m.B), hw.Vector(m.C)
	r.ev = vm.engine.At(m.FireAt, "remote-irq", r.fire)
	h.inflight[vm.lane] = append(h.inflight[vm.lane], r)
}

// dropInflight removes a fired delivery, preserving the (deterministic)
// arrival order of the remainder. In-flight counts are tiny — at most
// latency/period entries per stream — so a linear scan is fine.
//
//paratick:noalloc
func (h *Host) dropInflight(lane int, r *remoteIRQ) {
	list := h.inflight[lane]
	for i, e := range list {
		if e == r {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			h.inflight[lane] = list[:len(list)-1]
			return
		}
	}
	panic("kvm: fired remote IRQ missing from the in-flight list")
}

// ipiStream is one periodic cross-VM doorbell generator: every period it
// posts a remote IRQ from src's lane to dst's vCPU, modeling a vhost-style
// notification stream between VMs on different sockets. A pooled host
// keeps its streams with their pre-bound handlers: Host.reset blanks them
// into streamPool and AddIPIStream rebinds the one at the next index.
type ipiStream struct {
	//snap:skip stream endpoints are scenario config, re-installed before restore
	src, dst *VM
	//snap:skip immutable stream parameter from the scenario
	vcpu int
	//snap:skip immutable stream parameter from the scenario
	period sim.Time
	//snap:skip immutable stream parameter from the scenario
	latency sim.Time
	sent    uint64
	ev      sim.Event
	//snap:skip pre-bound handler, bound when the stream object is built
	fn sim.Handler
}

// AddIPIStream installs a periodic cross-VM interrupt stream, first
// firing at phase. Streams require lane mode: the delivery latency must
// cover the conservative quantum horizon. Call during construction, in a
// deterministic order — stream order is part of the scenario's identity.
func (h *Host) AddIPIStream(src, dst *VM, vcpu int, period, latency, phase sim.Time) error {
	if h.se.Quantum() <= 0 {
		return fmt.Errorf("kvm: IPI streams require lane mode (a positive quantum)")
	}
	if period <= 0 {
		return fmt.Errorf("kvm: IPI stream period must be positive, got %v", period)
	}
	if latency < h.se.Quantum() {
		return fmt.Errorf("kvm: IPI stream latency %v is below the conservative quantum horizon %v", latency, h.se.Quantum())
	}
	if vcpu < 0 || vcpu >= len(dst.vcpus) {
		return fmt.Errorf("kvm: IPI stream targets invalid vCPU %d of VM %q", vcpu, dst.name)
	}
	if phase <= 0 {
		phase = period
	}
	var s *ipiStream
	if i := len(h.streams); i < len(h.streamPool) {
		s = h.streamPool[i]
		h.streamPool[i] = nil
	} else {
		s = new(ipiStream)
		s.fn = func(e *sim.Engine) {
			s.sent++
			now := e.Now()
			// Posted from the source VM's lane; the latency is at least one
			// quantum, the conservative horizon sim.ShardedEngine.Post
			// enforces.
			h.se.Post(sim.Message{
				Src: s.src.lane, Dst: s.dst.lane, FireAt: now + s.latency,
				A: int64(s.dst.index), B: int64(s.vcpu), C: int64(hw.RescheduleVector),
			})
			s.ev = e.At(now+s.period, "ipi-stream", s.fn)
		}
	}
	s.src, s.dst, s.vcpu, s.period, s.latency = src, dst, vcpu, period, latency
	s.ev = src.engine.At(phase, "ipi-stream", s.fn)
	h.streams = append(h.streams, s)
	return nil
}

// recycleStreams blanks the finished run's streams, keeping only their
// pre-bound handlers, and swaps them into streamPool for AddIPIStream. A
// blank stream names no VM, so a pooled host pins none of the VMs the arena
// drops. The engines were reset, so the pending events are dropped, not
// canceled. A run that installed no stream leaves the pool alone.
//
//paratick:noalloc
func (h *Host) recycleStreams() {
	if len(h.streams) == 0 {
		return
	}
	for _, s := range h.streams {
		*s = ipiStream{fn: s.fn}
	}
	clear(h.streamPool)
	h.streams, h.streamPool = h.streamPool[:0], h.streams
}
