// Sharded intra-run parallelism: one Engine per lane (a lane is a CPU
// socket in the kvm layer), coordinated by a conservative time-quantum
// barrier — the parti-gem5 scheme. Each lane's engine advances
// independently to the next quantum boundary; anything that crosses lanes
// travels as a Message through deterministic per-source mailboxes drained
// at the barrier in fixed (source-lane, FIFO) order.
//
// The determinism contract: the observable output of a lane-mode run is a
// pure function of (seed, lane count, quantum) — never of the shard count.
// Lanes are a semantic property (how the scenario partitions state);
// shards only decide how many OS goroutines execute those lanes. shards=1
// executes the identical lane schedule inline, so differential tests can
// pin byte-equality of shards∈{1,2,4,8} against each other cheaply.
//
// Quantum 0 is the legacy single-engine mode: WrapEngine embeds an
// existing Engine and every ShardedEngine method delegates to it
// unchanged, including snapshot encoding — byte-identical to the
// pre-shard code path.
package sim

import (
	"fmt"

	"paratick/internal/snap"
)

// Message is one cross-lane interaction, exchanged only at quantum
// barriers. It is pure data — closures cannot cross lanes, because a
// checkpoint between delivery and firing must be able to serialize the
// in-flight interaction. The receiver (SetDeliver) interprets the payload
// words and schedules whatever event the message implies on the
// destination lane's engine.
type Message struct {
	// Src and Dst are lane indices. Post must be called from Src's
	// execution context (its shard's goroutine, or the coordinator between
	// quanta).
	Src, Dst int
	// FireAt is the earliest instant the interaction may take effect. The
	// conservative-barrier protocol requires FireAt ≥ send time + quantum:
	// the destination lane may already have advanced to the end of the
	// current quantum, so anything earlier could rewrite its past.
	FireAt Time
	// A, B, C are receiver-defined payload words (e.g. VM index, vCPU
	// index, interrupt vector).
	A, B, C int64
}

// shardWorker is one shard's goroutine handle: start carries the next
// barrier to advance to (or stopWorker), done signals the span finished.
// The channel pair is also the memory barrier that publishes the shard's
// engine state to the coordinator (and back) — engines are never touched
// by two goroutines concurrently. The coordinator builds its workers once;
// each RunUntil starts one goroutine per worker with `go w.loop()` and
// ends it with stopWorker before returning.
type shardWorker struct {
	engines []*Engine
	start   chan Time
	done    chan struct{}
	// loop is run bound to this worker, so starting the goroutine
	// allocates no closure.
	loop func()
}

// stopWorker is the barrier value that ends a worker's goroutine; real
// barriers are never negative.
const stopWorker Time = -1

// run advances the worker's lanes to each barrier it is sent until it
// receives stopWorker.
func (w *shardWorker) run() {
	for q := range w.start {
		if q == stopWorker {
			return
		}
		for _, e := range w.engines {
			e.RunUntil(q)
		}
		w.done <- struct{}{}
	}
}

// ShardedEngine coordinates one Engine per lane under a quantum barrier.
// The zero value is not usable; construct with NewSharded or WrapEngine.
// Like Engine, it keeps one stop flag: Stop is terminal, so a stopped run
// leaves every lane clock where it stopped, and only Reset clears it.
type ShardedEngine struct {
	engines []*Engine
	// shardEngines groups lanes into contiguous per-shard runs; shard s
	// executes shardEngines[s] serially on its goroutine.
	//snap:skip derived regrouping of engines, rebuilt at construction
	shardEngines [][]*Engine
	quantum      Time
	//snap:skip construction-time worker count, fixed by the topology
	shards int
	// workers are the goroutine handles of a multi-shard coordinator, one
	// per shard, built at construction; nil when shards == 1.
	//snap:skip goroutine handles, idle between RunUntil calls
	workers []*shardWorker

	// outbox[src] buffers messages posted by lane src during the current
	// quantum; only src's shard appends to it, so no locking is needed.
	//snap:skip empty at every barrier, the only instant a snapshot is taken
	outbox [][]Message
	// deliver receives every message at barrier drain, in (src lane, FIFO)
	// order, on the coordinator goroutine.
	//snap:skip closure wiring, rebound by SetDeliver after restore
	deliver func(Message)
	// hook runs after every barrier drain with the barrier instant; it is
	// where the experiment layer checks workload completion (lane mode
	// defers Stop to barriers so the decision never depends on intra-
	// quantum cross-lane state).
	//snap:skip closure wiring, rebound by the experiment layer after restore
	hook func(Time)

	stopped bool // lane mode: set by Stop, cleared only by Reset
}

// WrapEngine adapts a single legacy engine to the ShardedEngine interface:
// quantum 0, one lane, one shard, every method delegating unchanged.
func WrapEngine(e *Engine) *ShardedEngine {
	if e == nil {
		panic("sim: WrapEngine requires an engine")
	}
	return &ShardedEngine{
		engines:      []*Engine{e},
		shardEngines: [][]*Engine{{e}},
		shards:       1,
	}
}

// NewSharded builds a lane-mode coordinator: `lanes` engines seeded as a
// pure function of (seed, lane), grouped into `shards` contiguous lane
// ranges. quantum must be positive unless lanes == shards == 1 and may
// then be 0, which degenerates to the legacy single-engine mode (an
// engine seeded exactly like NewEngine(seed)).
func NewSharded(seed uint64, lanes, shards int, quantum Time) (*ShardedEngine, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("sim: need at least one lane, got %d", lanes)
	}
	if shards < 1 || shards > lanes {
		return nil, fmt.Errorf("sim: shard count %d out of range [1,%d]", shards, lanes)
	}
	if quantum < 0 {
		return nil, fmt.Errorf("sim: quantum must be non-negative, got %v", quantum)
	}
	if quantum == 0 {
		if lanes != 1 || shards != 1 {
			return nil, fmt.Errorf("sim: %d lanes / %d shards require a positive quantum", lanes, shards)
		}
		return WrapEngine(NewEngine(seed)), nil
	}
	se := &ShardedEngine{
		engines: make([]*Engine, lanes),
		quantum: quantum,
		shards:  shards,
		outbox:  make([][]Message, lanes),
	}
	for l := range se.engines {
		se.engines[l] = NewEngine(0)
	}
	se.shardEngines = make([][]*Engine, shards)
	for s := 0; s < shards; s++ {
		lo, hi := s*lanes/shards, (s+1)*lanes/shards
		se.shardEngines[s] = se.engines[lo:hi]
	}
	if shards > 1 {
		se.workers = make([]*shardWorker, shards)
		for s := range se.workers {
			w := &shardWorker{
				engines: se.shardEngines[s],
				start:   make(chan Time),
				done:    make(chan struct{}),
			}
			w.loop = w.run
			se.workers[s] = w
		}
	}
	se.Reset(seed)
	return se, nil
}

// Reset returns the coordinator to its just-constructed state for the
// given seed, retaining every engine's allocated capacity. NewSharded
// seeds its lanes through it, so the arena reuse path and a fresh build
// share one seeding rule.
func (se *ShardedEngine) Reset(seed uint64) {
	se.stopped = false
	if se.quantum == 0 {
		se.engines[0].Reset(seed)
		return
	}
	var rs Rand
	rs.Reseed(seed)
	for l, e := range se.engines {
		e.Reset(rs.Uint64())
		se.outbox[l] = se.outbox[l][:0]
	}
}

// Quantum returns the barrier quantum (0 in legacy mode).
func (se *ShardedEngine) Quantum() Time { return se.quantum }

// Lanes returns the lane count.
func (se *ShardedEngine) Lanes() int { return len(se.engines) }

// Shards returns how many goroutines execute the lanes (1 = inline).
func (se *ShardedEngine) Shards() int { return se.shards }

// Engine returns the lane's engine. Components built on lane l must
// schedule exclusively through Engine(l) and never touch another lane's
// engine at runtime — that is what makes shard execution race-free.
func (se *ShardedEngine) Engine(lane int) *Engine {
	if lane < 0 || lane >= len(se.engines) {
		panic(fmt.Sprintf("sim: lane %d out of range [0,%d)", lane, len(se.engines)))
	}
	return se.engines[lane]
}

// Root returns lane 0's engine — the engine, in legacy mode.
func (se *ShardedEngine) Root() *Engine { return se.engines[0] }

// Now returns the current simulated time. In lane mode every engine
// agrees at barriers; mid-quantum it reports lane 0's clock, so
// cross-lane observers must only read it from the coordinator context.
func (se *ShardedEngine) Now() Time { return se.engines[0].now }

// Pending returns the total queued events across all lanes.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, e := range se.engines {
		n += e.count
	}
	return n
}

// Fired returns the total events dispatched across all lanes.
func (se *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, e := range se.engines {
		n += e.fired
	}
	return n
}

// SetObserver installs the dispatch observer on every lane's engine.
// Observers are only safe in single-shard execution (legacy tracing
// tools); a multi-shard run would invoke one from several goroutines.
func (se *ShardedEngine) SetObserver(obs Observer) {
	for _, e := range se.engines {
		e.SetObserver(obs)
	}
}

// SetDeliver installs the barrier-drain message receiver. It runs on the
// coordinator goroutine with every lane parked at the barrier, so it may
// schedule on any lane's engine.
func (se *ShardedEngine) SetDeliver(fn func(Message)) { se.deliver = fn }

// SetBarrierHook installs a function run after every barrier drain with
// the barrier instant. It may call Stop to end the run at this barrier.
func (se *ShardedEngine) SetBarrierHook(fn func(Time)) { se.hook = fn }

// Post queues a cross-lane message for delivery at the current quantum's
// barrier. It must be called from the source lane's execution context and
// only in lane mode; FireAt must respect the conservative horizon
// (≥ source-lane now + quantum).
func (se *ShardedEngine) Post(m Message) {
	if se.quantum == 0 {
		panic("sim: Post requires lane mode (positive quantum)")
	}
	if m.Src < 0 || m.Src >= len(se.engines) || m.Dst < 0 || m.Dst >= len(se.engines) {
		panic(fmt.Sprintf("sim: message lanes (%d→%d) out of range [0,%d)", m.Src, m.Dst, len(se.engines)))
	}
	if horizon := se.engines[m.Src].now + se.quantum; m.FireAt < horizon {
		panic(fmt.Sprintf("sim: message fires at %v, before the conservative horizon %v (now+quantum)", m.FireAt, horizon))
	}
	se.outbox[m.Src] = append(se.outbox[m.Src], m)
}

// Stop halts the coordinator for good, as Engine.Stop does. In lane mode
// the run ends at the next quantum barrier (a mid-quantum stop would make
// the cut point depend on shard interleaving), and every later RunUntil
// does nothing until Reset; in legacy mode it is the engine's own Stop.
func (se *ShardedEngine) Stop() {
	if se.quantum == 0 {
		se.engines[0].Stop()
		return
	}
	se.stopped = true
}

// Stopped reports whether Stop has been called since the last Reset.
func (se *ShardedEngine) Stopped() bool {
	if se.quantum == 0 {
		return se.engines[0].Stopped()
	}
	return se.stopped
}

// advanceAll moves every lane clock forward to t (never backward),
// matching Engine.RunUntil's clock-advance contract.
func (se *ShardedEngine) advanceAll(t Time) {
	for _, e := range se.engines {
		if e.now < t {
			e.now = t
		}
	}
}

// drain delivers every outbox message in (source lane, FIFO) order — the
// fixed cross-lane merge order the determinism contract pins. It runs on
// the coordinator with all lanes parked at the barrier.
func (se *ShardedEngine) drain() {
	for src := range se.outbox {
		box := se.outbox[src]
		if len(box) == 0 {
			continue
		}
		if se.deliver == nil {
			panic("sim: messages posted with no deliver hook installed")
		}
		for i, m := range box {
			se.deliver(m)
			box[i] = Message{}
		}
		se.outbox[src] = box[:0]
	}
}

// RunUntil advances the simulation to the deadline. Legacy mode delegates
// to the engine. Lane mode runs the quantum-barrier protocol: every lane
// advances to min(deadline, next quantum boundary) — in parallel when
// shards > 1 — then the coordinator drains cross-lane mailboxes and runs
// the barrier hook, until the deadline, a Stop, or global quiescence. A
// stopped run leaves every lane clock at the barrier it stopped at.
func (se *ShardedEngine) RunUntil(deadline Time) {
	if se.quantum == 0 {
		se.engines[0].RunUntil(deadline)
		return
	}
	if se.stopped {
		return
	}
	if se.workers != nil {
		se.startWorkers()
		defer se.stopWorkers()
	}
	for {
		now := se.engines[0].now
		if now >= deadline {
			return
		}
		// The next barrier: the first quantum-grid instant after now,
		// capped at the deadline (the final span may be partial).
		q := (now/se.quantum + 1) * se.quantum
		if q > deadline {
			q = deadline
		}
		if se.workers != nil {
			for _, w := range se.workers {
				w.start <- q
			}
			for _, w := range se.workers {
				<-w.done
			}
		} else {
			for _, e := range se.engines {
				e.RunUntil(q)
			}
		}
		se.drain()
		if se.hook != nil {
			se.hook(q)
		}
		if se.stopped || q >= deadline {
			return
		}
		if se.Pending() == 0 {
			// Global quiescence: no lane holds an event and the mailboxes
			// are drained, so nothing can ever fire again.
			se.advanceAll(deadline)
			return
		}
	}
}

// startWorkers starts one goroutine per shard for the duration of a
// RunUntil. The worker handles and their channels are built once, at
// construction, so a start allocates nothing; scoping the goroutines to
// the call keeps the engine single-threaded everywhere else
// (construction, snapshotting, draining) and leaves nothing running
// between calls, so a coordinator needs no Close.
func (se *ShardedEngine) startWorkers() {
	for _, w := range se.workers {
		go w.loop()
	}
}

// stopWorkers ends the shard goroutines startWorkers started.
func (se *ShardedEngine) stopWorkers() {
	for _, w := range se.workers {
		w.start <- stopWorker
	}
}

// Snap moves the coordinator state. Legacy mode moves exactly the single
// engine's section — byte-identical to the pre-shard encoding. Lane mode
// moves a sharded section followed by every lane's engine in lane order;
// the bytes are a pure function of (state, lanes, quantum), never of the
// shard count, so decoding only needs a coordinator of identical lanes and
// quantum. Snapshots are only legal at a barrier, where the mailboxes are
// provably empty — in-flight messages never serialize.
func (se *ShardedEngine) Snap(s *snap.Stream) {
	if se.quantum == 0 {
		se.engines[0].Snap(s)
		return
	}
	for src, box := range se.outbox {
		if len(box) != 0 {
			panic(fmt.Sprintf("sim: snapshot with %d undelivered messages from lane %d (not at a barrier)", len(box), src))
		}
	}
	s.Section("sharded-engine")
	q := se.quantum
	snap.Int(s, &q)
	if q != se.quantum {
		s.Failf("sim: snapshot quantum %v, coordinator has %v", q, se.quantum)
	}
	s.Len(len(se.engines), "lanes")
	snapStopped(s, &se.stopped)
	for _, e := range se.engines {
		e.Snap(s)
	}
}

// Save encodes the coordinator state; see Snap.
func (se *ShardedEngine) Save(enc *snap.Encoder) { se.Snap(snap.NewWriter(enc)) }

// Load decodes state written by Save; see Snap.
func (se *ShardedEngine) Load(dec *snap.Decoder) error { return snap.Decode(dec, se) }
