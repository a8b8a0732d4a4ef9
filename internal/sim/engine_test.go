package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{250, "250ns"},
		{Microsecond, "1us"},
		{1500 * Nanosecond, "1.5us"},
		{2500 * Microsecond, "2.5ms"},
		{3 * Second, "3s"},
		{-2 * Millisecond, "-2ms"},
		{Forever, "forever"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestPeriodFromHz(t *testing.T) {
	if got := PeriodFromHz(250); got != 4*Millisecond {
		t.Errorf("PeriodFromHz(250) = %v, want 4ms", got)
	}
	if got := PeriodFromHz(1000); got != Millisecond {
		t.Errorf("PeriodFromHz(1000) = %v, want 1ms", got)
	}
	if got := PeriodFromHz(0); got != Forever {
		t.Errorf("PeriodFromHz(0) = %v, want Forever", got)
	}
	if got := PeriodFromHz(-5); got != Forever {
		t.Errorf("PeriodFromHz(-5) = %v, want Forever", got)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MinTime(1, 2) != 1 || MinTime(2, 1) != 1 {
		t.Error("MinTime broken")
	}
	if MaxTime(1, 2) != 2 || MaxTime(2, 1) != 2 {
		t.Error("MaxTime broken")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, "c", func(*Engine) { got = append(got, 3) })
	e.At(10, "a", func(*Engine) { got = append(got, 1) })
	e.At(20, "b", func(*Engine) { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, "tie", func(*Engine) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.After(100, "x", func(en *Engine) {
		en.After(50, "y", func(en *Engine) { at = en.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, "x", func(*Engine) { fired = true })
	if !ev.Pending() {
		t.Fatal("event should be pending after scheduling")
	}
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if ev.Pending() {
		t.Fatal("event still pending after cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Cancel(ev) {
		t.Fatal("double cancel should return false")
	}
	if e.Cancel(Event{}) {
		t.Fatal("cancel of zero handle should return false")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	var evs []Event
	for i := 1; i <= 10; i++ {
		w := Time(i * 10)
		evs = append(evs, e.At(w, "x", func(en *Engine) { got = append(got, en.Now()) }))
	}
	e.Cancel(evs[4]) // t=50
	e.Cancel(evs[7]) // t=80
	e.Run()
	want := []Time{10, 20, 30, 40, 60, 70, 90, 100}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestEngineCancelFromHandler(t *testing.T) {
	e := NewEngine(1)
	fired := false
	victim := e.At(20, "victim", func(*Engine) { fired = true })
	e.At(10, "killer", func(en *Engine) { en.Cancel(victim) })
	e.Run()
	if fired {
		t.Fatal("victim fired despite cancellation from an earlier handler")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, w := range []Time{10, 20, 30, 40} {
		w := w
		e.At(w, "x", func(en *Engine) { got = append(got, en.Now()) })
	}
	e.RunUntil(25)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("RunUntil(25) fired %v", got)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v after RunUntil(25)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(got) != 4 || e.Now() != 100 {
		t.Fatalf("second RunUntil: got %v now %v", got, e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "x", func(en *Engine) {
			count++
			if count == 3 {
				en.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("Stop did not halt Run: count = %d", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() should be true")
	}
	// A later Run resumes.
	e.Run()
	if count != 10 {
		t.Fatalf("resumed Run processed %d total", count)
	}
}

func TestEnginePanicsOnPastSchedule(t *testing.T) {
	e := NewEngine(1)
	e.At(100, "x", func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.At(50, "bad", func(*Engine) {})
	})
	e.Run()
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, "bad", func(*Engine) {})
}

func TestEnginePanicsOnNilHandler(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	e.At(1, "bad", nil)
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), "x", func(*Engine) {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", e.Fired())
	}
}

func TestEventAccessors(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(42, "mylabel", func(*Engine) {})
	if ev.When() != 42 {
		t.Errorf("When() = %v", ev.When())
	}
	if ev.Label() != "mylabel" {
		t.Errorf("Label() = %q", ev.Label())
	}
	var zero Event
	if zero.Pending() {
		t.Error("zero event handle reports pending")
	}
	if zero.When() != 0 || zero.Label() != "" {
		t.Error("zero event handle has non-zero accessors")
	}
}

// Property: any set of scheduled times is dispatched in sorted order.
func TestEngineDispatchSortedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine(7)
		var got []Time
		for _, r := range raw {
			w := Time(r)
			e.At(w, "p", func(en *Engine) { got = append(got, en.Now()) })
		}
		e.Run()
		if len(got) != len(raw) {
			return false
		}
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after random interleaved schedule/cancel operations, exactly the
// non-canceled events fire, each exactly once.
func TestEngineCancelExactnessProperty(t *testing.T) {
	f := func(times []uint16, cancelMask []bool) bool {
		e := NewEngine(3)
		fireCount := make(map[int]int)
		var evs []Event
		for i, r := range times {
			i := i
			evs = append(evs, e.At(Time(r), "p", func(*Engine) { fireCount[i]++ }))
		}
		canceled := make(map[int]bool)
		for i := range evs {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(evs[i])
				canceled[i] = true
			}
		}
		e.Run()
		for i := range evs {
			want := 1
			if canceled[i] {
				want = 0
			}
			if fireCount[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(99)
		var got []Time
		// A chain of randomly scheduled events using the engine RNG.
		var step func(en *Engine)
		n := 0
		step = func(en *Engine) {
			got = append(got, en.Now())
			n++
			if n < 100 {
				en.After(en.Rand().Between(1, 1000), "chain", step)
			}
		}
		e.After(1, "start", step)
		e.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A Stop issued before a run starts must halt that run before it dispatches
// anything; the run consumes the request, so the following run resumes.
func TestEngineHonorsPreRunStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i), "x", func(*Engine) { count++ })
	}
	e.Stop()
	if !e.Stopped() {
		t.Fatal("Stopped() should report a pending pre-run stop")
	}
	e.Run()
	if count != 0 {
		t.Fatalf("pre-run Stop ignored: %d events fired", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() should be true after a stopped run")
	}
	e.Run() // the stop was consumed; this run proceeds
	if count != 5 {
		t.Fatalf("resumed run fired %d events, want 5", count)
	}
	if e.Stopped() {
		t.Fatal("Stopped() should clear on a completed run")
	}
}

func TestEngineRunUntilHonorsPreRunStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i), "x", func(*Engine) { count++ })
	}
	e.Stop()
	e.RunUntil(100)
	if count != 0 {
		t.Fatalf("pre-run Stop ignored by RunUntil: %d events fired", count)
	}
	// The clock still advances to the deadline, matching RunUntil's contract.
	if e.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", e.Now())
	}
	e.RunUntil(200)
	if count != 5 {
		t.Fatalf("resumed RunUntil fired %d events, want 5", count)
	}
}

// Handles are generation-stamped: once an event fires, its handle is dead,
// and reusing the pooled storage for a new event must not resurrect it.
func TestEventHandleSurvivesRecycling(t *testing.T) {
	e := NewEngine(1)
	stale := e.At(1, "first", func(*Engine) {})
	e.Run()
	if stale.Pending() {
		t.Fatal("fired event still pending")
	}
	// The next schedule recycles the node the stale handle points to.
	fired := false
	fresh := e.At(2, "second", func(*Engine) { fired = true })
	if e.Cancel(stale) {
		t.Fatal("stale handle canceled a recycled event")
	}
	if stale.Pending() {
		t.Fatal("stale handle reports the recycled event as its own")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event lost")
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event did not fire")
	}
}

// The steady-state schedule→fire→reschedule cycle must not allocate: the
// free list recycles event nodes and the batch never grows.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	// Warm up: populate the node slab and batch capacity.
	for i := 0; i < 100; i++ {
		e.After(1, "warm", func(*Engine) {})
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, "steady", func(*Engine) {})
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %v objects/op, want 0", allocs)
	}
	cancels := testing.AllocsPerRun(1000, func() {
		ev := e.After(1000, "c", func(*Engine) {})
		e.Cancel(ev)
	})
	if cancels != 0 {
		t.Fatalf("schedule+cancel allocates %v objects/op, want 0", cancels)
	}

	// Deep insert + batch cancel: a chain of 64 events a microsecond apart
	// keeps up to drainMax entries in the live batch; each round inserts
	// an event ahead of all of them (stepping back over every entry),
	// cancels it from the batch, and fires one chain event.
	var chain Handler
	chain = func(en *Engine) { en.After(64*Microsecond, "chain", chain) }
	nop := func(*Engine) {}
	for i := 1; i <= 64; i++ {
		e.After(Time(i)*Microsecond, "chain", chain)
	}
	deep := func() {
		ev := e.After(1, "deep", nop)
		if !e.Cancel(ev) {
			t.Fatal("deep-inserted event not cancelable")
		}
		e.Step()
	}
	for i := 0; i < 10000; i++ {
		deep()
	}
	if deeps := testing.AllocsPerRun(1000, deep); deeps != 0 {
		t.Fatalf("deep insert+batch cancel allocates %v objects/op, want 0", deeps)
	}
}

// TestEngineBatchDeepInserts drives one drained bucket's live batch, a
// dozen entries long, through inserts that step back deep from its tail —
// ahead of the batch, at its tail, between entries and at an existing
// instant — plus restored older seqs and cancels of shifted, inserted and
// already-fired entries. Every insert must land in the batch, and the fire
// order must be the plain (when, seq) sort of the surviving events.
func TestEngineBatchDeepInserts(t *testing.T) {
	e := NewEngine(1)
	type want struct {
		when Time
		seq  uint64
		id   int
	}
	var (
		live  []want
		evs   []Event
		fired []int
	)
	record := func(ev Event) {
		id := len(evs)
		evs = append(evs, ev)
		seq, _ := ev.Seq()
		live = append(live, want{when: ev.When(), seq: seq, id: id})
	}
	handler := func(id int) Handler {
		return func(*Engine) { fired = append(fired, id) }
	}
	// Times are offsets from base: bucket 17 holds [base, 2·base), and a
	// bucket that narrow and short drains whole into the batch.
	const base = Time(1) << 16
	at := func(when Time) {
		record(e.At(base+when, "deep", handler(len(evs))))
	}
	restore := func(when Time, seq uint64) {
		record(e.ScheduleRestored(base+when, seq, "restored", handler(len(evs))))
	}
	cancel := func(id int, ok bool) {
		t.Helper()
		if got := e.Cancel(evs[id]); got != ok {
			t.Fatalf("Cancel(%d) = %v, want %v", id, got, ok)
		}
		for i, w := range live {
			if w.id == id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	check := func(step string) {
		t.Helper()
		if e.Pending() != len(live) {
			t.Fatalf("%s: Pending = %d, want %d", step, e.Pending(), len(live))
		}
	}

	// Burn two seqs so older-seq restores have unused coordinates.
	e.Cancel(e.At(Millisecond, "burn", func(*Engine) {}))
	e.Cancel(e.At(Millisecond, "burn", func(*Engine) {}))
	// A head event, then pairs of events sharing an instant, 100ns apart,
	// all in one bucket.
	at(1)
	n := 12
	for k := 0; k < n; k++ {
		at(1000 + Time(k/2)*100)
	}
	check("build")
	if !e.Step() || len(fired) != 1 || fired[0] != 0 {
		t.Fatalf("head did not fire first: %v", fired)
	}
	live = live[1:]
	check("head")

	at(2) // ahead of the whole batch
	check("insert ahead")
	at(1000 + Time(n)*100) // tail
	check("insert tail")
	at(1150) // between two instants
	check("insert between")
	at(1100) // at an existing instant, after its two older entries
	check("insert at instant")
	restore(1100, 1) // same instant, older seq: ahead of every 1100 entry
	check("restore older seq")
	cancel(3, true)   // an 1100 entry, shifted by the inserts ahead of it
	cancel(n-1, true) // a late entry, shifted by every insert but the tail
	cancel(n+3, true) // the 1150 insert itself
	check("cancel shifted")
	cancel(0, false) // fired head
	check("cancel fired")
	at(3)           // ahead again, past the canceled cells
	restore(900, 0) // restored ahead of the batch
	check("insert past canceled")
	for id, ev := range evs {
		if ev.Pending() && ev.n.loc != locBatch {
			t.Fatalf("event %d is not in the batch", id)
		}
	}

	sort.Slice(live, func(i, j int) bool {
		if live[i].when != live[j].when {
			return live[i].when < live[j].when
		}
		return live[i].seq < live[j].seq
	})
	fired = fired[:0]
	e.Run()
	if len(fired) != len(live) {
		t.Fatalf("fired %d events, want %d: %v", len(fired), len(live), fired)
	}
	for i, w := range live {
		if fired[i] != w.id {
			t.Fatalf("fire order %v diverges at %d: want id %d (when %v, seq %d)", fired, i, w.id, w.when, w.seq)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
}

// TestEngineResetDetachesEveryNode fills the live batch and every bucket
// but bucket 0 (two events to a bucket, at its two ends), then resets the
// engine. Every node must come back to the pool detached, with nil links,
// every handle must be dead, and the same schedule must then run again in
// (when, seq) order.
func TestEngineResetDetachesEveryNode(t *testing.T) {
	e := NewEngine(1)
	var order []int
	schedule := func() []Event {
		var evs []Event
		add := func(when Time) {
			id := len(evs)
			evs = append(evs, e.At(when, "ev", func(*Engine) { order = append(order, id) }))
		}
		// Four events at time 0 fill bucket 0, which drains into the batch.
		for k := 0; k < 4; k++ {
			add(0)
		}
		// Bucket b holds the keys whose highest set bit is bit b-1.
		for b := 1; b < radixBuckets; b++ {
			low := Time(1) << (b - 1)
			add(low)
			add(low | (low - 1))
		}
		add(Forever)
		return evs
	}
	evs := schedule()
	if !e.Step() || !e.batchLive() || len(e.batch)-e.batchPos != 3 {
		t.Fatal("no live batch of three after the first dispatch")
	}
	if want := ^uint64(0) &^ 1; e.occ != want {
		t.Fatalf("occupancy word = %#x, want %#x", e.occ, want)
	}
	e.Reset(1)
	for i, ev := range evs {
		nd := ev.n
		if ev.Pending() || nd.loc != locDetached || nd.next != nil || nd.prev != nil {
			t.Fatalf("event %d after Reset: pending %v, loc %d, next %p, prev %p",
				i, ev.Pending(), nd.loc, nd.next, nd.prev)
		}
	}
	if e.Pending() != 0 || e.occ != 0 || e.buckets != [radixBuckets]*node{} || len(e.batch) != 0 {
		t.Fatal("queue not empty after Reset")
	}
	order = order[:0]
	evs = schedule()
	e.Run()
	if len(order) != len(evs) {
		t.Fatalf("fired %d of %d rescheduled events", len(order), len(evs))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("fire order after Reset diverges at %d: got id %d", i, id)
		}
	}
}

// TestEngineResetAllocs fills the bucket lists, through a redistribution,
// and the live batch, then resets the engine: walking both and releasing
// their nodes must not allocate.
func TestEngineResetAllocs(t *testing.T) {
	e := NewEngine(1)
	span := Time(1) << 16
	nop := func(*Engine) {}
	fill := func() {
		// 44 events in one bucket, too many to drain whole: the first
		// dispatch redistributes them around span, the four at span drain
		// into the batch and the rest spread over lower buckets.
		for k := Time(0); k < 4; k++ {
			e.At(span, "batch", nop)
		}
		for k := Time(0); k < 40; k++ {
			e.At(span+1+k*span/40, "dense", nop)
		}
		for k := Time(1); k <= 4; k++ {
			e.At(k*Second, "far", nop)
		}
		e.Step()
	}
	fill()
	if e.last != span || !e.batchLive() || e.occ == 0 {
		t.Fatalf("fill missed a container: last %v, batch %d of %d, occupancy %#x",
			e.last, e.batchPos, len(e.batch), e.occ)
	}
	e.Reset(1)
	var pending int
	allocs := testing.AllocsPerRun(100, func() {
		fill()
		pending = e.Pending()
		e.Reset(1)
	})
	if allocs != 0 {
		t.Fatalf("fill+Reset allocates %v objects/op, want 0", allocs)
	}
	if pending != 48-1 || e.Pending() != 0 {
		t.Fatalf("pending %d before Reset and %d after, want %d and 0", pending, e.Pending(), 48-1)
	}
}

// TestEngineSize bounds the engine's inline size: 64 list heads plus a few
// dozen words of scalars and slice headers.
func TestEngineSize(t *testing.T) {
	if n, limit := unsafe.Sizeof(Engine{}), uintptr(radixBuckets*8+256); n > limit {
		t.Fatalf("Engine is %d bytes, want at most %d", n, limit)
	}
}
