package iodev

// Checkpoint/restore of device state. Requests reference guest objects
// only by index — the submitting vCPU and the waiting task's ID — so Snap
// takes the guest's vCPU and task counts and refuses indices outside them.
// In-service requests carry their completion event's (when, seq)
// coordinates and are re-armed on restore, so a restored device completes
// I/O at exactly the pre-snapshot instants.

import (
	"sort"

	"paratick/internal/sim"
	"paratick/internal/snap"
)

// SetProfile swaps the device's latency profile. Only future submissions
// are affected; requests already in service keep their original completion
// schedule. The experiment layer uses this to vary device latency across
// forked snapshot arms without disturbing shared warmup state.
func (d *Device) SetProfile(p Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d.profile = p
	return nil
}

// Snap moves a request — the device's own, or one a guest segment carries
// before submission — from a guest of vcpus vCPUs and tasks tasks.
// Encoding and decoding both reject requests no submission path could have
// produced.
func (r *Request) Snap(s *snap.Stream, vcpus, tasks int) {
	s.Bool(&r.Write)
	s.Bool(&r.Sequential)
	snap.Int(s, &r.Bytes)
	snap.Int(s, &r.VCPU)
	if r.Bytes <= 0 || r.VCPU < 0 || r.VCPU >= vcpus {
		s.Failf("iodev: snapshot request of %d bytes from vCPU %d of %d", r.Bytes, r.VCPU, vcpus)
	}
	snap.Int(s, &r.Waiter)
	if r.Waiter < -1 || r.Waiter >= tasks {
		s.Failf("iodev: snapshot request waited on by task %d of %d", r.Waiter, tasks)
	}
	snap.Int(s, &r.Submitted)
	snap.Int(s, &r.Completed)
}

// snapRequest moves *p, taking a request from the device when decoding
// into an empty slot.
func (d *Device) snapRequest(s *snap.Stream, p **Request, vcpus, tasks int) *Request {
	if *p == nil {
		*p = d.NewRequest()
	}
	(*p).Snap(s, vcpus, tasks)
	return *p
}

// Snap moves the device's full state for a guest of vcpus vCPUs and tasks
// tasks. Decoding targets a freshly constructed device (same name, vector,
// and engine wiring) and re-arms every in-service completion and
// coalescing flush.
func (d *Device) Snap(s *snap.Stream, vcpus, tasks int) {
	s.Section("iodev:" + d.name)
	if s.Decoding() && (d.Inflight() != 0 || len(d.waiting) != 0 || len(d.completed) != 0) {
		s.Failf("iodev: %s: restore into a device with active requests", d.name)
	}
	d.rng.Snap(s)
	s.U64(&d.ops)
	s.U64(&d.bytesRead)
	s.U64(&d.bytesWritten)
	s.U64(&d.coalescedIRQs)

	for i := range snap.Slice(s, &d.running) {
		req := d.snapRequest(s, &d.running[i], vcpus, tasks)
		sim.SnapArmed(s, d.engine, &req.ev, d.ioLabel, d.finishHandler(req))
	}
	for i := range snap.Slice(s, &d.waiting) {
		d.snapRequest(s, &d.waiting[i], vcpus, tasks)
	}
	for i := range snap.Slice(s, &d.completed) {
		d.snapRequest(s, &d.completed[i], vcpus, tasks)
	}

	// Coalescing state is keyed by vCPU in a map, so it moves under sorted
	// keys (paratick-vet D003). Exhausted entries (no pending completions,
	// no flush scheduled) are semantically absent and skipped, so equal
	// states encode to equal bytes.
	var keys []int
	if s.Decoding() {
		clear(d.coalesce)
	} else {
		for vcpu, st := range d.coalesce {
			if st.pending > 0 || st.flush.Pending() {
				keys = append(keys, vcpu)
			}
		}
		sort.Ints(keys)
	}
	for i := range snap.Slice(s, &keys) {
		vcpu := &keys[i]
		snap.Int(s, vcpu)
		if *vcpu < 0 || *vcpu >= vcpus {
			s.Failf("iodev: %s: snapshot coalesces completions for vCPU %d", d.name, *vcpu)
			return
		}
		st := d.coalesce[*vcpu]
		if st == nil {
			st = d.newCoalesceState(*vcpu)
		}
		snap.Int(s, &st.pending)
		sim.SnapEvent(s, d.engine, &st.flush, d.coalesceLabel, st.fire)
	}
}
