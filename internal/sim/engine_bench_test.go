package sim

import "testing"

// BenchmarkEngineScheduleFire measures raw event throughput: schedule one
// event and dispatch it, repeatedly.
//
// Pinned in the -perf-suite regression gate as engine/schedule-fire; keep
// the kernel in internal/perf in sync when changing the shape here.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, "b", func(*Engine) {})
		e.Step()
	}
}

// BenchmarkEngineDeepQueue measures the queue with 4,096 events 1 ns apart,
// each re-armed 4,096 ns out, so redistribution runs often.
// The steady-state fire→reschedule chain must not allocate.
func BenchmarkEngineDeepQueue(b *testing.B) {
	e := NewEngine(1)
	const depth = 4096
	var chain func(en *Engine)
	chain = func(en *Engine) {
		// Every firing schedules a replacement, keeping depth constant.
		en.After(depth, "chain", chain)
	}
	for i := 0; i < depth; i++ {
		e.After(Time(i+1), "seed", chain)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained")
		}
	}
}

// BenchmarkEngineTickWave models the periodic-tick exit path: 64 ticks a
// microsecond apart fill one bucket, and each tick schedules an exit a few
// microseconds ahead, which lands in the live batch ahead of most of it.
// The exit re-arms its tick one period out, keeping the wave steady. One
// op is one dispatched event.
func BenchmarkEngineTickWave(b *testing.B) {
	e := NewEngine(1)
	const (
		ticks  = 64
		period = ticks * Microsecond
		exitIn = 3 * Microsecond
	)
	var tick, exit Handler
	tick = func(en *Engine) { en.After(exitIn, "exit", exit) }
	exit = func(en *Engine) { en.After(period-exitIn, "tick", tick) }
	for i := 0; i < ticks; i++ {
		e.At(Time(i)*Microsecond, "tick", tick)
	}
	for i := 0; i < 4*ticks; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained")
		}
	}
}

// BenchmarkEngineCancelHeavy models the DeadlineTimer re-arm churn: against
// a deep queue, every iteration cancels an interior event and schedules a
// replacement further out — the paratick entry-hook pattern of overwriting
// an armed deadline on every VM entry.
//
// Pinned in the -perf-suite regression gate as engine/cancel-heavy; keep
// the kernel in internal/perf in sync when changing the shape here.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	e := NewEngine(1)
	const depth = 1024
	ring := make([]Event, depth)
	for i := range ring {
		ring[i] = e.After(Time(i+1), "seed", func(*Engine) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % depth
		e.Cancel(ring[slot])
		ring[slot] = e.After(Time(depth+i+1), "rearm", func(*Engine) {})
	}
}

// BenchmarkEngineCancel measures schedule+cancel cycles.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := e.After(1000, "c", func(*Engine) {})
		e.Cancel(ev)
	}
}

// BenchmarkRandUint64 measures the generator.
func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

// BenchmarkRandExp measures the exponential sampler used by workloads.
func BenchmarkRandExp(b *testing.B) {
	r := NewRand(1)
	var sink Time
	for i := 0; i < b.N; i++ {
		sink += r.Exp(Microsecond)
	}
	_ = sink
}
