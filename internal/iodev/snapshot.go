package iodev

// Checkpoint/restore of device state. Requests reference guest objects
// through the opaque Cookie and the submitting vCPU index, so Snap takes a
// Refs translator: the guest layer maps cookies to stable task IDs and
// back, and bounds vCPU indices. In-service requests carry their completion
// event's (when, seq) coordinates and are re-armed on restore, so a
// restored device completes I/O at exactly the pre-snapshot instants.

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

// Refs translates the guest-side references a request carries.
type Refs interface {
	// CookieID maps a non-nil request Cookie to a stable non-negative
	// identifier, or -1 when it has none.
	CookieID(cookie any) int64
	// Cookie maps an identifier from CookieID back to the live Cookie.
	Cookie(id int64) any
	// ValidVCPU reports whether vcpu indexes a vCPU that can submit I/O.
	ValidVCPU(vcpu int) bool
}

// Snap moves a request — the device's own, or one a guest segment carries
// before submission. Decoding rejects requests no submission path could
// have produced.
func (r *Request) Snap(s *snap.Stream, refs Refs) {
	s.Bool(&r.Write)
	s.Bool(&r.Sequential)
	snap.Int(s, &r.Bytes)
	snap.Int(s, &r.VCPU)
	if r.Bytes <= 0 || !refs.ValidVCPU(r.VCPU) {
		s.Failf("iodev: snapshot request of %d bytes from vCPU %d", r.Bytes, r.VCPU)
	}
	cookie := int64(-1)
	if r.Cookie != nil {
		cookie = refs.CookieID(r.Cookie)
	}
	s.I64(&cookie)
	if s.Decoding() && cookie >= 0 {
		r.Cookie = refs.Cookie(cookie)
	}
	snap.Int(s, &r.Submitted)
	snap.Int(s, &r.Completed)
	s.Bool(&r.done)
}

// snapRequest moves *p, taking a request from the device when decoding
// into an empty slot.
func (d *Device) snapRequest(s *snap.Stream, p **Request, refs Refs) *Request {
	if *p == nil {
		*p = d.NewRequest()
	}
	(*p).Snap(s, refs)
	return *p
}

// Snap moves the device's full state. Decoding targets a freshly
// constructed device (same name, vector, and engine wiring) and re-arms
// every in-service completion and coalescing flush.
func (d *Device) Snap(s *snap.Stream, refs Refs) {
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
		req := d.snapRequest(s, &d.running[i], refs)
		sim.SnapArmed(s, d.engine, &req.ev, d.ioLabel, d.finishHandler(req))
	}
	d.inflight = len(d.running)
	for i := range snap.Slice(s, &d.waiting) {
		d.snapRequest(s, &d.waiting[i], refs)
	}
	for i := range snap.Slice(s, &d.completed) {
		d.snapRequest(s, &d.completed[i], refs)
	}

	// Coalescing state is keyed by vCPU in a map, so it moves under sorted
	// keys (paratick-vet D003). Exhausted entries (no pending completions,
	// no flush scheduled) are semantically absent and skipped, so equal
	// states encode to equal bytes.
	var vcpus []int
	if s.Decoding() {
		clear(d.coalesce)
	} else {
		for vcpu, st := range d.coalesce {
			if st.pending > 0 || st.flush.Pending() {
				vcpus = append(vcpus, vcpu)
			}
		}
		sort.Ints(vcpus)
	}
	for i := range snap.Slice(s, &vcpus) {
		vcpu := &vcpus[i]
		snap.Int(s, vcpu)
		if !refs.ValidVCPU(*vcpu) {
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
