package iodev

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"paratick/internal/hw"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

func newTestDevice(t *testing.T, p Profile) (*sim.Engine, *Device) {
	t.Helper()
	e := sim.NewEngine(7)
	p.Jitter = 0 // deterministic latencies for exact assertions
	d, err := New(e, "disk0", p, hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func TestProfilesValid(t *testing.T) {
	for _, p := range []Profile{NVMe(), SataSSD(), HDD()} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestProfileValidateRejectsBad(t *testing.T) {
	bad := []Profile{
		{Name: "a", ReadBase: 0, WriteBase: 1, SeqFactor: 1, QueueDepth: 1},
		{Name: "b", ReadBase: 1, WriteBase: 0, SeqFactor: 1, QueueDepth: 1},
		{Name: "c", ReadBase: 1, WriteBase: 1, PerKiB: -1, SeqFactor: 1, QueueDepth: 1},
		{Name: "d", ReadBase: 1, WriteBase: 1, SeqFactor: 0, QueueDepth: 1},
		{Name: "e", ReadBase: 1, WriteBase: 1, SeqFactor: 1.5, QueueDepth: 1},
		{Name: "f", ReadBase: 1, WriteBase: 1, SeqFactor: 1, QueueDepth: 0},
		{Name: "g", ReadBase: 1, WriteBase: 1, SeqFactor: 1, QueueDepth: 1, Jitter: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %s accepted", p.Name)
		}
	}
}

func TestLatencyShape(t *testing.T) {
	p := NVMe()
	// Writes slower than reads.
	if p.Latency(true, false, 4096) <= p.Latency(false, false, 4096) {
		t.Error("write latency should exceed read latency")
	}
	// Sequential faster than random.
	if p.Latency(false, true, 4096) >= p.Latency(false, false, 4096) {
		t.Error("sequential should be faster than random")
	}
	// Bigger transfers take longer.
	if p.Latency(false, false, 256*1024) <= p.Latency(false, false, 4096) {
		t.Error("256k should take longer than 4k")
	}
	// Exact: 4k random read on NVMe = 8us + 4*150ns.
	want := 8*sim.Microsecond + 4*150
	if got := p.Latency(false, false, 4096); got != want {
		t.Errorf("4k read latency = %v, want %v", got, want)
	}
}

func TestDeviceOrderingAcrossLatencyClasses(t *testing.T) {
	// The §4.2/§6.3 premise: NVMe ≪ SATA ≪ HDD.
	if NVMe().Latency(false, false, 4096) >= SataSSD().Latency(false, false, 4096) {
		t.Error("NVMe should be faster than SATA SSD")
	}
	if SataSSD().Latency(false, false, 4096) >= HDD().Latency(false, false, 4096) {
		t.Error("SATA SSD should be faster than HDD")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "x", NVMe(), hw.IODeviceBase); err == nil {
		t.Error("nil engine accepted")
	}
	e := sim.NewEngine(1)
	if _, err := New(e, "x", Profile{}, hw.IODeviceBase); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestSubmitCompletes(t *testing.T) {
	e, d := newTestDevice(t, NVMe())
	var completions []*Request
	d.OnComplete = func(r *Request) { completions = append(completions, r) }
	req := &Request{Bytes: 4096, VCPU: 0, Waiter: 1}
	d.Submit(req)
	if d.Inflight() != 1 {
		t.Fatalf("inflight = %d", d.Inflight())
	}
	e.Run()
	if !req.Done() {
		t.Fatal("request not done")
	}
	if len(completions) != 1 || completions[0] != req {
		t.Fatalf("completions = %v", completions)
	}
	if req.Completed != 8*sim.Microsecond+4*150 {
		t.Fatalf("completed at %v", req.Completed)
	}
	if d.Ops() != 1 || d.BytesRead() != 4096 || d.BytesWritten() != 0 {
		t.Fatalf("stats: ops=%d read=%d written=%d", d.Ops(), d.BytesRead(), d.BytesWritten())
	}
}

func TestWriteAccounting(t *testing.T) {
	e, d := newTestDevice(t, NVMe())
	d.Submit(&Request{Write: true, Bytes: 8192})
	e.Run()
	if d.BytesWritten() != 8192 || d.BytesRead() != 0 {
		t.Fatalf("write accounting: read=%d written=%d", d.BytesRead(), d.BytesWritten())
	}
}

func TestQueueDepthLimits(t *testing.T) {
	p := NVMe()
	p.QueueDepth = 2
	e, d := newTestDevice(t, p)
	for i := 0; i < 5; i++ {
		d.Submit(&Request{Bytes: 4096, VCPU: 0})
	}
	if d.Inflight() != 2 {
		t.Fatalf("inflight = %d, want 2", d.Inflight())
	}
	if d.QueuedWaiting() != 3 {
		t.Fatalf("waiting = %d, want 3", d.QueuedWaiting())
	}
	e.Run()
	if d.Ops() != 5 {
		t.Fatalf("ops = %d, want 5", d.Ops())
	}
	if d.Inflight() != 0 || d.QueuedWaiting() != 0 {
		t.Fatal("device not drained")
	}
}

func TestQueueDepthOneIsFIFO(t *testing.T) {
	p := NVMe()
	p.QueueDepth = 1
	e, d := newTestDevice(t, p)
	var order []int
	d.OnComplete = func(r *Request) { order = append(order, r.Waiter) }
	for i := 0; i < 4; i++ {
		d.Submit(&Request{Bytes: 4096, Waiter: i})
	}
	e.Run()
	for i, c := range order {
		if c != i {
			t.Fatalf("completion order = %v", order)
		}
	}
}

func TestDrainCompletedFor(t *testing.T) {
	e, d := newTestDevice(t, NVMe())
	d.Submit(&Request{Bytes: 4096, VCPU: 0, Waiter: 0})
	d.Submit(&Request{Bytes: 4096, VCPU: 1, Waiter: 1})
	d.Submit(&Request{Bytes: 4096, VCPU: 0, Waiter: 2})
	e.Run()
	got := d.DrainCompletedFor(0)
	if len(got) != 2 {
		t.Fatalf("drained %d for vcpu0, want 2", len(got))
	}
	for _, r := range got {
		if r.VCPU != 0 {
			t.Fatal("drained wrong vCPU's request")
		}
	}
	// Draining again returns nothing for vcpu 0, one for vcpu 1.
	if len(d.DrainCompletedFor(0)) != 0 {
		t.Fatal("double drain returned requests")
	}
	if len(d.DrainCompletedFor(1)) != 1 {
		t.Fatal("vcpu1's completion lost")
	}
}

func TestSubmitPanicsOnBadRequest(t *testing.T) {
	_, d := newTestDevice(t, NVMe())
	for _, req := range []*Request{nil, {Bytes: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%+v) did not panic", req)
				}
			}()
			d.Submit(req)
		}()
	}
}

func TestJitterBounds(t *testing.T) {
	e := sim.NewEngine(7)
	p := NVMe() // 10% jitter
	d, err := New(e, "j", p, hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	nominal := p.Latency(false, false, 4096)
	lo := sim.Time(float64(nominal) * 0.9)
	hi := sim.Time(float64(nominal) * 1.1)
	for i := 0; i < 200; i++ {
		req := &Request{Bytes: 4096}
		start := e.Now()
		d.Submit(req)
		e.Run()
		lat := req.Completed - start
		if lat < lo || lat > hi {
			t.Fatalf("jittered latency %v outside [%v,%v]", lat, lo, hi)
		}
	}
}

// Property: all submitted requests eventually complete exactly once, for
// any queue depth and request count.
func TestAllRequestsCompleteProperty(t *testing.T) {
	f := func(nRaw, qdRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NVMe()
		p.QueueDepth = int(qdRaw%8) + 1
		p.Jitter = 0
		e := sim.NewEngine(11)
		d, err := New(e, "p", p, hw.IODeviceBase)
		if err != nil {
			return false
		}
		completions := 0
		d.OnComplete = func(*Request) { completions++ }
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = &Request{Bytes: 4096 * (i%4 + 1), VCPU: i % 3, Write: i%2 == 0}
			d.Submit(reqs[i])
		}
		e.Run()
		if completions != n || d.Ops() != uint64(n) {
			return false
		}
		for _, r := range reqs {
			if !r.Done() || r.Completed < r.Submitted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAccessors(t *testing.T) {
	_, d := newTestDevice(t, NVMe())
	if d.Name() != "disk0" {
		t.Error("Name")
	}
	if d.Vector() != hw.IODeviceBase {
		t.Error("Vector")
	}
	if d.Profile().Name != "nvme" {
		t.Error("Profile")
	}
}

func TestCoalescingBatchesInterrupts(t *testing.T) {
	p := NVMe()
	p.Jitter = 0
	p.CoalesceWindow = 50 * sim.Microsecond
	p.CoalesceMax = 0 // window only
	e := sim.NewEngine(3)
	d, err := New(e, "c", p, hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	irqs := 0
	completions := 0
	d.OnInterrupt = func(vcpu int) { irqs++ }
	d.OnComplete = func(*Request) { completions++ }
	// 8 requests complete within ~9.2us of each other (QD 64, same
	// latency): one coalesced interrupt covers them all.
	for i := 0; i < 8; i++ {
		d.Submit(&Request{Bytes: 4096, VCPU: 0})
	}
	e.Run()
	if completions != 8 {
		t.Fatalf("completions = %d", completions)
	}
	if irqs != 1 {
		t.Fatalf("interrupts = %d, want 1 coalesced", irqs)
	}
	if d.CoalescedInterrupts() != 1 {
		t.Fatalf("CoalescedInterrupts = %d", d.CoalescedInterrupts())
	}
}

func TestCoalescingMaxFlushesEarly(t *testing.T) {
	p := NVMe()
	p.Jitter = 0
	p.CoalesceWindow = sim.Second // effectively never by window
	p.CoalesceMax = 4
	e := sim.NewEngine(3)
	d, err := New(e, "c", p, hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	irqs := 0
	d.OnInterrupt = func(int) { irqs++ }
	for i := 0; i < 8; i++ {
		d.Submit(&Request{Bytes: 4096, VCPU: 0})
	}
	e.RunUntil(10 * sim.Millisecond)
	if irqs != 2 {
		t.Fatalf("interrupts = %d, want 2 (batches of 4)", irqs)
	}
}

func TestCoalescingPerVCPU(t *testing.T) {
	p := NVMe()
	p.Jitter = 0
	p.CoalesceWindow = 50 * sim.Microsecond
	e := sim.NewEngine(3)
	d, err := New(e, "c", p, hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	d.OnInterrupt = func(v int) { got[v]++ }
	d.Submit(&Request{Bytes: 4096, VCPU: 0})
	d.Submit(&Request{Bytes: 4096, VCPU: 1})
	e.Run()
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("per-vcpu interrupts = %v", got)
	}
}

func TestNoCoalescingImmediateInterrupt(t *testing.T) {
	e, d := newTestDevice(t, NVMe())
	irqs := 0
	d.OnInterrupt = func(int) { irqs++ }
	d.Submit(&Request{Bytes: 4096})
	d.Submit(&Request{Bytes: 4096})
	e.Run()
	if irqs != 2 {
		t.Fatalf("interrupts = %d, want one per completion", irqs)
	}
	if d.CoalescedInterrupts() != 0 {
		t.Fatal("coalesced count should be 0 when disabled")
	}
}

func TestCoalescingValidation(t *testing.T) {
	p := NVMe()
	p.CoalesceWindow = -1
	if p.Validate() == nil {
		t.Error("negative window accepted")
	}
	p = NVMe()
	p.CoalesceMax = -1
	if p.Validate() == nil {
		t.Error("negative max accepted")
	}
}

// TestReleasedRequestCarriesNoStaleState pins the request lifecycle: a
// request handed back with Release comes out of NewRequest blank (no
// waiter), keeping only its completion handler.
func TestReleasedRequestCarriesNoStaleState(t *testing.T) {
	e, d := newTestDevice(t, NVMe())
	req := d.NewRequest()
	if req.Waiter != -1 {
		t.Fatalf("new request has waiter %d, want -1", req.Waiter)
	}
	req.Write, req.Sequential, req.Bytes, req.VCPU, req.Waiter = true, true, 8192, 1, 3
	d.Submit(req)
	e.Run()
	drained := d.DrainCompletedFor(1)
	if len(drained) != 1 || drained[0] != req || !req.Done() {
		t.Fatalf("drained %v, want the completed request", drained)
	}
	d.Release(req)
	again := d.NewRequest()
	if again != req {
		t.Fatal("NewRequest did not recycle the released request")
	}
	if again.fin == nil {
		t.Fatal("recycled request lost its completion handler")
	}
	// Request holds a func field, so it is not comparable; check every
	// other field explicitly.
	if again.Write || again.Sequential || again.Bytes != 0 || again.VCPU != 0 || again.Waiter != -1 ||
		again.Submitted != 0 || again.Completed != 0 || again.ev != (sim.Event{}) {
		t.Fatalf("recycled request carries stale state: %+v", *again)
	}
}

// TestDrainInPlaceKeepsOtherVCPUs checks the in-place filter: draining one
// vCPU's completions leaves the others queued in completion order, with the
// vacated tail cleared.
func TestDrainInPlaceKeepsOtherVCPUs(t *testing.T) {
	p := NVMe()
	p.QueueDepth = 1 // completions land in submission order
	e, d := newTestDevice(t, p)
	for i, vcpu := range []int{0, 1, 0, 2, 1} {
		d.Submit(&Request{Bytes: 4096, VCPU: vcpu, Waiter: i})
	}
	e.Run()
	full := d.completed[:cap(d.completed)]
	if got := d.DrainCompletedFor(0); len(got) != 2 || got[0].Waiter != 0 || got[1].Waiter != 2 {
		t.Fatalf("vCPU 0 drained %v", got)
	}
	if len(d.completed) != 3 || d.completed[0].Waiter != 1 || d.completed[1].Waiter != 3 || d.completed[2].Waiter != 4 {
		t.Fatalf("remaining completions out of order: %v", d.completed)
	}
	for i := len(d.completed); i < len(full); i++ {
		if full[i] != nil {
			t.Fatalf("vacated completion slot %d still references a request", i)
		}
	}
}

// TestDeviceSteadyStateAllocs pins the allocation-free I/O path: once the
// request pool, the device's lists, and the engine are warm, a
// submit→complete→drain→release cycle allocates nothing, with and without
// interrupt coalescing.
func TestDeviceSteadyStateAllocs(t *testing.T) {
	coalescing := NVMe()
	coalescing.CoalesceWindow = 20 * sim.Microsecond
	coalescing.CoalesceMax = 3
	for _, p := range []Profile{NVMe(), coalescing} {
		name := "immediate"
		if p.CoalesceWindow > 0 {
			name = "coalesced"
		}
		t.Run(name, func(t *testing.T) {
			p.QueueDepth = 2 // exercise the waiting list too
			e, d := newTestDevice(t, p)
			irqs := 0
			d.OnInterrupt = func(int) { irqs++ }
			cycle := func() {
				for i := 0; i < 4; i++ {
					req := d.NewRequest()
					req.Bytes = 4096 * (i + 1)
					req.VCPU = i % 2
					req.Write = i == 3
					d.Submit(req)
				}
				e.Run()
				for vcpu := 0; vcpu < 2; vcpu++ {
					for _, req := range d.DrainCompletedFor(vcpu) {
						d.Release(req)
					}
				}
			}
			// Warm-up spans several rotations of the engine's timer-wheel
			// ring, so every bucket the measured cycles touch has capacity.
			for i := 0; i < 2000; i++ {
				cycle()
			}
			if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
				t.Fatalf("submit/complete/drain/release allocates %.1f allocs/cycle, want 0", allocs)
			}
			if irqs == 0 || d.Ops() == 0 {
				t.Fatal("no completions or interrupts; the check would be vacuous")
			}
		})
	}
}

// TestRequestSnapRejectsUnknownRefs checks the guest indices a request
// carries against the guest's vCPU and task counts, in both directions:
// encoding a bad request fails, and so does decoding the bytes it wrote.
func TestRequestSnapRejectsUnknownRefs(t *testing.T) {
	const vcpus, tasks = 2, 3
	for _, tc := range []struct {
		name string
		req  Request
		want string // "" = round-trips
	}{
		{"blocking", Request{Bytes: 4096, VCPU: 1, Waiter: tasks - 1}, ""},
		{"non-blocking", Request{Bytes: 4096, VCPU: 0, Waiter: -1}, ""},
		{"waiter-below-none", Request{Bytes: 4096, VCPU: 0, Waiter: -2}, "task -2 of 3"},
		{"waiter-past-tasks", Request{Bytes: 4096, VCPU: 0, Waiter: tasks}, "task 3 of 3"},
		{"vcpu-negative", Request{Bytes: 4096, VCPU: -1, Waiter: -1}, "vCPU -1 of 2"},
		{"vcpu-past-vcpus", Request{Bytes: 4096, VCPU: vcpus, Waiter: 0}, "vCPU 2 of 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(dir string, err error) {
				t.Helper()
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("%s: %v", dir, err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("%s err = %v, want one containing %q", dir, err, tc.want)
				}
			}
			var enc snap.Encoder
			w := snap.NewWriter(&enc)
			req := tc.req
			req.Snap(w, vcpus, tasks)
			check("encode", w.Err())
			r := snap.NewReader(snap.NewDecoder(enc.Bytes()))
			var got Request
			got.Snap(r, vcpus, tasks)
			check("decode", r.Err())
			if tc.want == "" && (got.VCPU != req.VCPU || got.Waiter != req.Waiter) {
				t.Fatalf("round trip = %+v, want %+v", got, req)
			}
		})
	}
}

// TestDeviceResetMatchesNew is the device pool's contract: a device reset
// while it holds requests in service, queued, completed and undrained, and
// a coalescing batch with its flush pending, encodes to the same bytes as a
// New device and then completes the same script at the same instants with
// the same interrupts. The reset also changes the name and vector, so the
// labels and the stream's fork tag must follow; the fork itself must sit at
// the engine's first draw, where devices have always forked theirs.
func TestDeviceResetMatchesNew(t *testing.T) {
	const seed = 5
	dirty := NVMe()
	dirty.QueueDepth = 2
	dirty.CoalesceWindow = 30 * sim.Microsecond
	dirty.CoalesceMax = 3
	e := sim.NewEngine(seed)
	d, err := New(e, "old0", dirty, hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	d.OnInterrupt = func(int) {}
	d.OnComplete = func(*Request) {}
	for i := 0; i < 5; i++ {
		req := d.NewRequest()
		req.Bytes, req.VCPU = 4096, i%2
		d.Submit(req)
	}
	e.RunUntil(10 * sim.Microsecond)
	for _, req := range d.DrainCompletedFor(0) {
		d.Release(req)
	}
	if d.Inflight() == 0 || d.QueuedWaiting() == 0 || len(d.completed) == 0 || len(d.free) == 0 ||
		d.coalesce[1] == nil || d.coalesce[1].pending == 0 || d.Ops() == 0 {
		t.Fatalf("device is not dirty enough for the audit: %d in flight, %d queued, %d completed, %d free, coalesce %v",
			d.Inflight(), d.QueuedWaiting(), len(d.completed), len(d.free), d.coalesce)
	}

	p := NVMe()
	p.QueueDepth = 3
	p.CoalesceWindow = 20 * sim.Microsecond
	p.CoalesceMax = 2
	e.Reset(seed)
	if err := d.Reset(e, "disk0", p, hw.IODeviceBase+1); err != nil {
		t.Fatal(err)
	}
	if d.OnComplete != nil || d.OnInterrupt == nil {
		t.Fatal("Reset must clear the completion observer and keep the interrupt hook")
	}
	// The stream is forked at the engine's first draw, with the vector's tag.
	if want := sim.NewEngine(seed).Rand().Fork(uint64(hw.IODeviceBase+1) + 0x10dead); *d.rng != *want {
		t.Fatal("Reset did not fork the device stream from the engine's first draw")
	}
	fe := sim.NewEngine(seed)
	fresh, err := New(fe, "disk0", p, hw.IODeviceBase+1)
	if err != nil {
		t.Fatal(err)
	}

	encode := func(d *Device) []byte {
		var enc snap.Encoder
		w := snap.NewWriter(&enc)
		d.Snap(w, 2, 1)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return enc.Bytes()
	}
	if got, want := encode(d), encode(fresh); string(got) != string(want) {
		t.Fatalf("reset device encodes to %d bytes (digest %v), New to %d (digest %v)",
			len(got), snap.HashBytes(got), len(want), snap.HashBytes(want))
	}

	// script submits two waves of mixed requests, draining and releasing
	// between them, and logs every completion and interrupt.
	script := func(e *sim.Engine, d *Device) []string {
		var log []string
		d.OnComplete = func(r *Request) {
			log = append(log, fmt.Sprintf("done %d/%d w=%v @%v", r.VCPU, r.Bytes, r.Write, r.Completed))
		}
		d.OnInterrupt = func(vcpu int) { log = append(log, fmt.Sprintf("irq %d @%v", vcpu, e.Now())) }
		for wave := 0; wave < 2; wave++ {
			for i := 0; i < 7; i++ {
				req := d.NewRequest()
				req.Bytes = 4096 << (i % 3)
				req.VCPU = i % 2
				req.Write = i%3 == 2
				req.Sequential = i%2 == 0
				d.Submit(req)
			}
			e.Run()
			for vcpu := 0; vcpu < 2; vcpu++ {
				for _, req := range d.DrainCompletedFor(vcpu) {
					d.Release(req)
				}
			}
		}
		return append(log, fmt.Sprintf("ops %d read %d written %d coalesced %d engine %v",
			d.Ops(), d.BytesRead(), d.BytesWritten(), d.CoalescedInterrupts(), e.DigestState()))
	}
	got, want := script(e, d), script(fe, fresh)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("reset device ran the script differently:\n got %q\nwant %q", got, want)
	}
}
