// Package iodev models block I/O devices: latency profiles, a bounded
// submission queue, and completion interrupts. It substitutes for the
// paper's physical storage (§6.3 runs fio against the test system's disk;
// the paper notes it lacks an SR-IOV SSD). The profiles let experiments
// explore the paper's claim that paratick's benefit grows as device
// latencies shrink.
package iodev

import (
	"fmt"

	"paratick/internal/hw"
	"paratick/internal/sim"
)

// Profile characterizes a device's service latency.
type Profile struct {
	Name      string
	ReadBase  sim.Time // fixed service latency per read
	WriteBase sim.Time // fixed service latency per write
	PerKiB    sim.Time // transfer time per KiB
	// SeqFactor discounts the base latency of sequential accesses
	// (read-ahead / write coalescing); 1.0 = no discount.
	SeqFactor float64
	// QueueDepth bounds requests in flight; excess requests queue.
	QueueDepth int
	// Jitter is the uniform latency perturbation fraction.
	Jitter float64
	// CoalesceWindow, when positive, enables interrupt coalescing: after a
	// completion the interrupt is deferred up to this long (or until
	// CoalesceMax completions accumulate), batching completions into one
	// interrupt — standard NIC/NVMe moderation.
	CoalesceWindow sim.Time
	// CoalesceMax flushes a coalesced batch early once this many
	// completions are pending (0 = window only).
	CoalesceMax int
}

// NVMe returns a modern low-latency NVMe-class SSD profile. The paper
// predicts paratick's I/O benefit grows on such devices (§6.3).
func NVMe() Profile {
	return Profile{
		Name:     "nvme",
		ReadBase: 8 * sim.Microsecond, WriteBase: 14 * sim.Microsecond,
		PerKiB: 150, SeqFactor: 0.7, QueueDepth: 64, Jitter: 0.1,
	}
}

// SataSSD returns a SATA-SSD profile comparable to the paper's test system
// ("does not possess a high-end SSD device supporting SR-IOV", §6.3).
func SataSSD() Profile {
	return Profile{
		Name:     "sata-ssd",
		ReadBase: 55 * sim.Microsecond, WriteBase: 70 * sim.Microsecond,
		PerKiB: 250, SeqFactor: 0.6, QueueDepth: 32, Jitter: 0.15,
	}
}

// HDD returns a rotational-disk profile (high latency; §4.2 predicts little
// paratick benefit here).
func HDD() Profile {
	return Profile{
		Name:     "hdd",
		ReadBase: 4 * sim.Millisecond, WriteBase: 5 * sim.Millisecond,
		PerKiB: 30 * sim.Microsecond / 1024, SeqFactor: 0.15, QueueDepth: 4, Jitter: 0.3,
	}
}

// Validate checks profile ranges.
func (p Profile) Validate() error {
	if p.ReadBase <= 0 || p.WriteBase <= 0 {
		return fmt.Errorf("iodev: %s: base latencies must be positive", p.Name)
	}
	if p.PerKiB < 0 {
		return fmt.Errorf("iodev: %s: per-KiB cost must be non-negative", p.Name)
	}
	if p.SeqFactor <= 0 || p.SeqFactor > 1 {
		return fmt.Errorf("iodev: %s: SeqFactor must be in (0,1], got %v", p.Name, p.SeqFactor)
	}
	if p.QueueDepth <= 0 {
		return fmt.Errorf("iodev: %s: queue depth must be positive", p.Name)
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		return fmt.Errorf("iodev: %s: jitter must be in [0,1), got %v", p.Name, p.Jitter)
	}
	if p.CoalesceWindow < 0 || p.CoalesceMax < 0 {
		return fmt.Errorf("iodev: %s: negative coalescing parameter", p.Name)
	}
	return nil
}

// Latency returns the nominal (un-jittered) service time for an operation.
//
//paratick:noalloc
func (p Profile) Latency(write, sequential bool, bytes int) sim.Time {
	base := p.ReadBase
	if write {
		base = p.WriteBase
	}
	if sequential {
		base = sim.Time(float64(base) * p.SeqFactor)
	}
	transfer := p.PerKiB * sim.Time((bytes+1023)/1024)
	return base + transfer
}

// Request is one block-I/O operation. A device owns the requests it hands
// out: NewRequest pops one from its free list, Submit puts it in service,
// completion queues it for DrainCompletedFor, and the guest hands it back
// with Release once it has read the result.
type Request struct {
	Write      bool
	Sequential bool
	Bytes      int
	VCPU       int // submitting vCPU; completion interrupt targets it
	Waiter     int // ID of the guest task blocked on the result, -1 for none
	Submitted  sim.Time
	Completed  sim.Time
	ev         sim.Event // pending completion while in service
	//snap:skip pre-bound completion handler, bound by the device that starts the request
	fin sim.Handler
}

// Done reports whether the request has completed: only completion sets
// Completed, and no request completes at time zero.
func (r *Request) Done() bool { return r.Completed > 0 }

// Device is a block device with a bounded in-flight window. Completions are
// announced through the OnComplete callback (wired to the hypervisor's
// interrupt-raising path) and held until the guest drains them.
//
// A device is pooled with the guest kernel it is attached to: New builds a
// shell and calls Reset, and a pooled VM resets the device its previous run
// attached at the same index, so fresh and recycled devices take one path.
type Device struct {
	name string
	//snap:skip cache: label rebuilt by Reset when the name changes
	ioLabel string // precomputed completion-event label; submit is a hot path
	//snap:skip cache: label rebuilt by Reset when the name changes
	coalesceLabel string // precomputed coalescing-flush label
	//snap:skip engine wiring, bound by Reset
	engine *sim.Engine
	rng    *sim.Rand
	//snap:skip deliberately unsnapshotted: forked arms re-apply SetProfile after restore
	profile Profile
	//snap:skip interrupt vector, fixed by Reset at attach time
	vector hw.Vector

	// OnComplete is invoked at completion time, before the request is
	// queued for draining (per-request observation; tests and metrics).
	// The request is recycled once the guest drains and releases it, so
	// an observer must not keep the pointer past that point. Reset clears
	// it.
	//snap:skip observer callback, rewired by the harness after restore
	OnComplete func(req *Request)
	// OnInterrupt raises the completion interrupt toward the given vCPU.
	// With coalescing enabled it fires once per batch rather than once per
	// request. The hypervisor wires this to its interrupt-injection path
	// once per device object; Reset keeps it.
	//snap:skip injection wiring, bound by the hypervisor when it builds the device
	OnInterrupt func(vcpu int)

	running   []*Request // in service, submission order; each carries its completion event
	waiting   []*Request
	completed []*Request

	// drained is the buffer DrainCompletedFor returns, reused across calls.
	//snap:skip scratch: valid only until the next DrainCompletedFor
	drained []*Request
	// free holds released requests for NewRequest.
	//snap:skip pool: released requests, zeroed except for their pre-bound handler
	//reset:keep pool: released requests keep their pre-bound handlers across runs
	free []*Request

	// Per-vCPU coalescing state: pending completion count and the flush
	// event. Built on the first coalesced completion.
	coalesce map[int]*coalesceState

	ops           uint64
	bytesRead     uint64
	bytesWritten  uint64
	coalescedIRQs uint64
}

// New creates a device: a shell plus Reset. The vector is the interrupt it
// raises on completions.
func New(engine *sim.Engine, name string, profile Profile, vector hw.Vector) (*Device, error) {
	d := new(Device)
	if err := d.Reset(engine, name, profile, vector); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset returns the device to its just-constructed state for a run on
// engine, forking its latency stream at the draw point New uses. It keeps
// the labels (rebuilt only when the name changes), OnInterrupt, slice
// capacities and the free list with its pre-bound handlers. Requests the
// device still holds are dropped, not pooled: a guest segment of the
// finished run may still point at one. On error the device is unchanged.
func (d *Device) Reset(engine *sim.Engine, name string, profile Profile, vector hw.Vector) error {
	if engine == nil {
		return fmt.Errorf("iodev: nil engine")
	}
	if err := profile.Validate(); err != nil {
		return err
	}
	if d.ioLabel == "" || name != d.name {
		d.name = name
		d.ioLabel = "io:" + name
		d.coalesceLabel = "io-coalesce:" + name
	}
	d.engine = engine
	if d.rng == nil {
		d.rng = new(sim.Rand)
	}
	engine.Rand().ForkInto(d.rng, uint64(vector)+0x10dead)
	d.profile = profile
	d.vector = vector
	d.OnComplete = nil
	for _, list := range [...]*[]*Request{&d.running, &d.waiting, &d.completed, &d.drained} {
		clear(*list)
		*list = (*list)[:0]
	}
	clear(d.coalesce)
	d.ops, d.bytesRead, d.bytesWritten, d.coalescedIRQs = 0, 0, 0, 0
	return nil
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Vector returns the completion interrupt vector.
func (d *Device) Vector() hw.Vector { return d.vector }

// Profile returns the latency profile.
func (d *Device) Profile() Profile { return d.profile }

// Inflight returns the number of requests currently being serviced.
func (d *Device) Inflight() int { return len(d.running) }

// QueuedWaiting returns the number of requests waiting for a device slot.
func (d *Device) QueuedWaiting() int { return len(d.waiting) }

// Ops returns the number of completed operations.
func (d *Device) Ops() uint64 { return d.ops }

// BytesRead and BytesWritten return completed transfer totals.
func (d *Device) BytesRead() uint64    { return d.bytesRead }
func (d *Device) BytesWritten() uint64 { return d.bytesWritten }

// CoalescedInterrupts returns how many batched interrupts were raised
// (0 unless the profile enables coalescing).
func (d *Device) CoalescedInterrupts() uint64 { return d.coalescedIRQs }

// NewRequest returns a zeroed request with no waiter (Waiter -1) for this
// device, recycling a released one when it can. The caller fills it in and
// passes it to Submit.
//
//paratick:noalloc
func (d *Device) NewRequest() *Request {
	if n := len(d.free); n > 0 {
		req := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return req
	}
	//lint:ignore A001 pool miss: one request per concurrently outstanding I/O, absent in steady state
	req := new(Request)
	req.Waiter = -1
	return req
}

// Release hands a drained request back to the device that completed it.
// Every field returns to NewRequest's blank state (zero, Waiter -1) except
// the pre-bound completion handler, which captures this device; the caller
// must not touch req afterwards.
//
//paratick:noalloc
func (d *Device) Release(req *Request) {
	*req = Request{Waiter: -1, fin: req.fin}
	d.free = append(d.free, req)
}

// Submit enqueues a request; it starts servicing immediately if the device
// has a free slot.
func (d *Device) Submit(req *Request) {
	if req == nil || req.Bytes <= 0 {
		panic(fmt.Sprintf("iodev: %s: invalid request %+v", d.name, req))
	}
	req.Submitted = d.engine.Now()
	if len(d.running) < d.profile.QueueDepth {
		d.start(req)
	} else {
		d.waiting = append(d.waiting, req)
	}
}

//paratick:noalloc
func (d *Device) start(req *Request) {
	lat := d.profile.Latency(req.Write, req.Sequential, req.Bytes)
	lat = d.rng.Jitter(lat, d.profile.Jitter)
	req.ev = d.engine.After(lat, d.ioLabel, d.finishHandler(req))
	d.running = append(d.running, req)
}

// finishHandler returns req's completion handler, binding it on first use.
// The binding survives Release, so a recycled request reuses it; it is the
// one place a completion handler is built, for submitted and restored
// requests alike.
//
//paratick:noalloc
func (d *Device) finishHandler(req *Request) sim.Handler {
	if req.fin == nil {
		//lint:ignore A001 bound once per request object; recycled requests keep it
		req.fin = func(*sim.Engine) { d.finish(req) }
	}
	return req.fin
}

//paratick:noalloc
func (d *Device) finish(req *Request) {
	req.ev = sim.Event{}
	for i, r := range d.running {
		if r == req {
			// Ordered removal keeps the running list in submission order,
			// which is what the snapshot encoder relies on for canonical
			// bytes. The list is bounded by QueueDepth.
			n := len(d.running)
			copy(d.running[i:], d.running[i+1:])
			d.running[n-1] = nil
			d.running = d.running[:n-1]
			break
		}
	}
	req.Completed = d.engine.Now()
	d.ops++
	if req.Write {
		d.bytesWritten += uint64(req.Bytes)
	} else {
		d.bytesRead += uint64(req.Bytes)
	}
	d.completed = append(d.completed, req)
	if len(d.waiting) > 0 {
		next := d.waiting[0]
		d.waiting = d.waiting[0:copy(d.waiting, d.waiting[1:])]
		d.start(next)
	}
	if d.OnComplete != nil {
		d.OnComplete(req)
	}
	d.raiseOrCoalesce(req.VCPU)
}

// coalesceState tracks one vCPU's pending batch.
type coalesceState struct {
	pending int
	flush   sim.Event
	//snap:skip pre-bound flush handler, created with the state
	fire sim.Handler
}

// newCoalesceState builds vcpu's batch state with its flush handler bound,
// for first use and for restore alike.
func (d *Device) newCoalesceState(vcpu int) *coalesceState {
	if d.coalesce == nil {
		d.coalesce = make(map[int]*coalesceState)
	}
	st := &coalesceState{}
	st.fire = func(*sim.Engine) {
		st.flush = sim.Event{}
		d.flushCoalesced(vcpu, st)
	}
	d.coalesce[vcpu] = st
	return st
}

// raiseOrCoalesce delivers the completion interrupt, batching when the
// profile enables moderation.
//
//paratick:noalloc
func (d *Device) raiseOrCoalesce(vcpu int) {
	if d.OnInterrupt == nil {
		return
	}
	if d.profile.CoalesceWindow <= 0 {
		d.OnInterrupt(vcpu)
		return
	}
	st := d.coalesce[vcpu]
	if st == nil {
		//lint:ignore A001 first completion for vcpu: one state per (device, vCPU), absent in steady state
		st = d.newCoalesceState(vcpu)
	}
	st.pending++
	if d.profile.CoalesceMax > 0 && st.pending >= d.profile.CoalesceMax {
		d.flushCoalesced(vcpu, st)
		return
	}
	if !st.flush.Pending() {
		st.flush = d.engine.After(d.profile.CoalesceWindow, d.coalesceLabel, st.fire)
	}
}

//paratick:noalloc
func (d *Device) flushCoalesced(vcpu int, st *coalesceState) {
	d.engine.Cancel(st.flush)
	st.flush = sim.Event{}
	if st.pending == 0 {
		return
	}
	st.pending = 0
	d.coalescedIRQs++
	d.OnInterrupt(vcpu)
}

// EachRequest calls fn on every request the device holds: in service,
// queued, or completed and not yet drained.
func (d *Device) EachRequest(fn func(*Request)) {
	for _, list := range [...][]*Request{d.running, d.waiting, d.completed} {
		for _, r := range list {
			fn(r)
		}
	}
}

// DrainCompletedFor removes and returns completed requests whose submitting
// vCPU matches id — the guest's completion-handler view. The returned slice
// is a device-owned buffer, valid only until the next call; the requests in
// it belong to the caller, which hands each back with Release once done.
//
//paratick:noalloc
func (d *Device) DrainCompletedFor(vcpu int) []*Request {
	d.drained = d.drained[:0]
	kept := 0
	for _, r := range d.completed {
		if r.VCPU == vcpu {
			d.drained = append(d.drained, r)
		} else {
			d.completed[kept] = r
			kept++
		}
	}
	clear(d.completed[kept:])
	d.completed = d.completed[:kept]
	return d.drained
}
