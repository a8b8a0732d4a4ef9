// Package experiment defines and runs the paper's evaluation (§6): one
// runner per table and figure, producing the same rows and series the paper
// reports, plus the ablation studies DESIGN.md calls out. Each experiment
// compares paratick against the dynticks baseline (the paper's "vanilla
// Linux") on identical workloads and seeds.
package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"paratick/internal/core"
	"paratick/internal/iodev"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
)

// Options tune experiment size and environment.
type Options struct {
	// Seed fixes all randomness; identical seeds give identical runs.
	Seed uint64
	// Scale multiplies workload durations; 1.0 is the full-size run, small
	// values (e.g. 0.05) give quick smoke runs.
	Scale float64
	// Device is the block-device profile for I/O experiments.
	Device iodev.Profile
	// Repeats runs Figure 4 and each Figure 5 panel this many times with
	// consecutive seeds and reports mean ± spread, the paper's
	// 3–15-iteration methodology (§6). The other experiments run once
	// regardless. 0 or 1 = single run.
	Repeats int
	// Workers caps how many independent simulation runs execute
	// concurrently; 0 means runtime.GOMAXPROCS(0). Every run owns a private
	// sim.Engine and results are assembled by index, so any worker count
	// produces byte-identical output.
	Workers int
	// Meter, when non-nil, accumulates run/event telemetry across all runs
	// (including concurrent ones) for throughput reporting.
	Meter *metrics.Meter
	// SchedPolicy is the host vCPU scheduling policy experiments run under
	// (zero → sched.FIFO, the legacy behaviour). Experiments that compare
	// policies, like the overcommit sweep, ignore it and run both.
	SchedPolicy sched.Kind
	// SnapshotProbe, when positive, makes every run checkpoint itself at
	// this instant, verify the snapshot round-trips byte-identically, and
	// continue from the restored copy. Output must be byte-identical with
	// the probe on or off — the golden gate of the checkpoint machinery.
	SnapshotProbe sim.Time
	// Quantum, when positive, runs every scenario in lane mode: the host
	// splits into one event lane per socket, advanced in conservative time
	// quanta of this length (see sim.ShardedEngine). Lane mode is a semantic
	// switch — it changes per-lane RNG streams and event interleavings, so
	// its outputs differ from the legacy serial engine — and requires every
	// VM to be contained on one socket. 0 keeps the legacy engine,
	// byte-identical to all previous releases.
	Quantum sim.Time
	// Shards is how many goroutines execute the lanes within each quantum
	// (0 or 1 = serial). Purely an execution knob: output is byte-identical
	// for every shard count. Shards > 1 requires a positive Quantum.
	Shards int
	// NoArena disables every per-worker pool (engine, host, VM, kernel
	// reuse): each run builds its world from scratch. Pooling is
	// execution-only, so output must be byte-identical either way — the CI
	// arena differential gate runs the whole suite both ways and diffs the
	// reports. A debugging and auditing knob, not a performance setting.
	NoArena bool
	// Pool, when non-nil, carries worker arenas across experiment
	// invocations: consecutive RunTable1/ParsecFigure/... calls through the
	// same pool reuse each worker's engine, host, and pooled VMs instead of
	// rebuilding them on the first run of every experiment. A pool must not
	// be shared by concurrent experiment invocations (the worker goroutines
	// within one invocation are fine — each takes its own slot). Ignored
	// under NoArena.
	Pool *WorkerPool
}

// WorkerPool owns one arena per worker slot, letting a sequence of
// experiment invocations keep their worlds warm (see Options.Pool).
type WorkerPool struct {
	arenas []*arena
}

// NewWorkerPool returns an empty pool; arenas materialize as worker slots
// are first claimed.
func NewWorkerPool() *WorkerPool { return &WorkerPool{} }

// slot returns the arena for worker w, growing the pool on demand. Callers
// serialize slot claims (runParallel claims all slots before spawning its
// workers).
func (p *WorkerPool) slot(w int) *arena {
	for len(p.arenas) <= w {
		p.arenas = append(p.arenas, &arena{})
	}
	return p.arenas[w]
}

// DefaultOptions returns full-scale settings with the NVMe-class device.
func DefaultOptions() Options {
	return Options{Seed: 1, Scale: 1.0, Device: iodev.NVMe(), Repeats: 1}
}

// repeatCount normalizes Repeats (0 means 1).
func (o Options) repeatCount() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

// WorkerCount is the effective worker-pool size: Workers, or one worker per
// available CPU when Workers is 0.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// arena is per-worker scratch reused across the independent runs one worker
// executes serially. The dominant construction cost of a run is its engine
// coordinator — the wheel bucket arrays and event slab — which Reset retains
// across runs. Arenas are never shared between workers, so runs stay
// race-free, and a run's observable behaviour depends only on its seed (the
// coordinator resets to an identical state either way), keeping output
// byte-identical for any worker count.
type arena struct {
	// sharded caches the engine coordinator, serial (one lane, quantum 0)
	// or lane mode, reused while consecutive runs ask for the same
	// (lanes, shards, quantum) shape.
	sharded *sim.ShardedEngine
	// hosts pools Host construction (PCPUs, their pre-bound handler
	// closures, host-tick timers, scheduler queues) across runs on the
	// same coordinator and machine shape — and, one level down, whole VMs:
	// the host's kvm.VMArena recycles guest kernels, tasks, deadline
	// timers, and timer wheels across runs (the wheels ride inside their
	// pooled VMs, which is why the arena no longer carries a separate
	// wheel pool).
	hosts kvm.HostArena
	// res is the worker's reusable result storage: runAll refills it in
	// place for each result it hands to keep, so harvesting a sweep's
	// counters allocates nothing. Valid only until the worker's next run.
	res ScenarioResult
}

// resultScratch returns the arena's reusable ScenarioResult — overwritten
// by the next run through the same arena, so callers must copy out what
// they keep. A nil arena (Options.NoArena) allocates fresh storage.
func (a *arena) resultScratch() *ScenarioResult {
	if a == nil {
		return &ScenarioResult{}
	}
	return &a.res
}

// hostArena exposes the arena's host pool (nil arena → nil pool, meaning
// freshly built hosts).
func (a *arena) hostArena() *kvm.HostArena {
	if a == nil {
		return nil
	}
	return &a.hosts
}

// shardedFor returns a coordinator for the requested shape, reset to seed:
// the cached one while the shape matches, otherwise a new one (which the
// arena then caches). Quantum 0 is the serial shape (1, 1, 0), for which
// sim.NewSharded wraps one engine — the byte-identical legacy path. A nil
// arena (one-off runs outside a worker pool) always builds a new one.
func (a *arena) shardedFor(seed uint64, lanes, shards int, quantum sim.Time) (*sim.ShardedEngine, error) {
	if a != nil && a.sharded != nil &&
		a.sharded.Lanes() == lanes && a.sharded.Shards() == shards && a.sharded.Quantum() == quantum {
		a.sharded.Reset(seed)
		// The previous run's hooks capture its world; drop them so a stale
		// barrier hook can never fire into an abandoned object graph. The
		// new world's host and completion check reinstall theirs.
		a.sharded.SetDeliver(nil)
		a.sharded.SetBarrierHook(nil)
		return a.sharded, nil
	}
	se, err := sim.NewSharded(seed, lanes, shards, quantum)
	if err == nil && a != nil {
		a.sharded = se
	}
	return se, err
}

// arenaFor returns worker w's arena: nil when pooling is disabled, the
// pool's persistent slot when a pool is attached, a fresh invocation-local
// arena otherwise. Every arena consumer treats nil as "build everything
// fresh".
func (o Options) arenaFor(w int) *arena {
	if o.NoArena {
		return nil
	}
	if o.Pool != nil {
		return o.Pool.slot(w)
	}
	return &arena{}
}

// runParallel executes n independent jobs across at most o.WorkerCount()
// goroutines and assembles the results by index, so output ordering — and
// therefore every rendered table — is identical to a serial loop. Jobs must
// not share mutable state; each experiment run builds its own host and VMs,
// drawing scratch (the reused engine coordinator, the host/VM arenas) only
// from the worker-private arena it is handed (nil under o.NoArena). On
// failure the error of the lowest-index failing job is returned, keeping
// even the error path deterministic.
func runParallel[T any](o Options, n int, job func(i int, a *arena) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers := o.WorkerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		a := o.arenaFor(0)
		for i := 0; i < n; i++ {
			v, err := job(i, a)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		a := o.arenaFor(w)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = job(i, a)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Session pins one worker arena across caller-driven scenario runs, giving
// callers outside the experiment runners — the perf suite's fleet-reuse
// kernel, long-lived services — the same steady-state reuse a runParallel
// worker gets: after a warm-up run, consecutive runs recycle the engine,
// host, and whole VMs instead of rebuilding them. A Session is not safe for
// concurrent use; give each goroutine its own.
type Session struct {
	a arena
}

// NewSession returns an empty session; the first run through it builds and
// pools its world.
func NewSession() *Session { return &Session{} }

// RunScenarioInto executes the scenario through the session's arena,
// recording telemetry into m when non-nil, and writes per-VM results into
// caller-owned storage: out's Results slice is refilled in place, so a
// steady-state caller reusing one ScenarioResult across runs pays no
// per-run result allocation.
func (s *Session) RunScenarioInto(sc Scenario, seed uint64, m *metrics.Meter, out *ScenarioResult) error {
	return runScenarioInto(sc, seed, m, &s.a, out)
}

// Validate checks the options.
func (o Options) Validate() error {
	if !(o.Scale > 0) || math.IsInf(o.Scale, 1) {
		return fmt.Errorf("experiment: scale must be finite and positive, got %v", o.Scale)
	}
	if o.Repeats < 0 {
		return fmt.Errorf("experiment: repeats must be non-negative, got %d", o.Repeats)
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiment: workers must be non-negative, got %d", o.Workers)
	}
	if o.SnapshotProbe < 0 {
		return fmt.Errorf("experiment: snapshot probe must be non-negative, got %v", o.SnapshotProbe)
	}
	if o.Quantum < 0 {
		return fmt.Errorf("experiment: quantum must be non-negative, got %v", o.Quantum)
	}
	if o.Shards < 0 {
		return fmt.Errorf("experiment: shards must be non-negative, got %d", o.Shards)
	}
	if o.Shards > 1 && o.Quantum == 0 {
		return fmt.Errorf("experiment: %d shards require a positive quantum", o.Shards)
	}
	return o.Device.Validate()
}

// maxSimTime caps runaway simulations; any paper experiment finishes far
// sooner.
const maxSimTime = 1000 * sim.Second

// scenario stamps the invocation-wide knobs onto a runner's scenario: the
// host scheduling policy, the snapshot probe, and lane mode. It is the only
// place runners get them from, so every CLI gate covers every runner.
func (o Options) scenario(s Scenario) Scenario {
	s.SchedPolicy = o.SchedPolicy
	s.SnapshotProbe = o.SnapshotProbe
	s.Quantum = o.Quantum
	s.Shards = o.Shards
	return s
}

// oneVM builds the stamped single-VM scenario: one VM named like the
// scenario, which is the completion condition when it has a Setup.
func (o Options) oneVM(name string, vm VMSpec) Scenario {
	vm.Name = name
	vm.Workload = vm.Setup != nil
	return o.scenario(Scenario{Name: name, VMs: []VMSpec{vm}})
}

// run is one unit of work for runAll. With fork 0 it is a straight run:
// the scenario from boot to its deadline, one result. With a positive fork
// it is a fork group: the scenario warmed to the fork instant once and
// frozen, then thawed and finished once per arm hook (a nil hook finishes
// the group configuration unchanged), one result per arm.
type run struct {
	s    Scenario
	seed uint64
	fork sim.Time
	arms []func(*world) error
}

// results is how many results the run yields.
func (r *run) results() int {
	if r.fork == 0 {
		return 1
	}
	return len(r.arms)
}

// runAll is the one executor of experiment worlds. It validates opts, fans
// the runs out over the worker pool, each on its worker's arena, and hands
// every result to keep as it lands: k numbers the results in declaration
// order (a straight run's one result, then a fork group's arms in hook
// order) and r is worker scratch, valid only until keep returns. keep runs
// on worker goroutines, so it may write only what result k owns. The
// returned WarmupStats account the fork groups' shared warmups.
func runAll(opts Options, runs []run, keep func(k int, r *ScenarioResult)) (WarmupStats, error) {
	var warm WarmupStats
	if err := opts.Validate(); err != nil {
		return warm, err
	}
	first := make([]int, len(runs))
	n := 0
	for i := range runs {
		first[i] = n
		n += runs[i].results()
	}
	warmups, err := runParallel(opts, len(runs), func(i int, a *arena) (uint64, error) {
		r := &runs[i]
		out := a.resultScratch()
		if r.fork == 0 {
			if err := runScenarioInto(r.s, r.seed, opts.Meter, a, out); err != nil {
				return 0, err
			}
			keep(first[i], out)
			return 0, nil
		}
		ck, err := checkpointScenario(r.s, r.seed, r.fork, opts.Meter, a)
		if err != nil {
			return 0, err
		}
		for arm, hook := range r.arms {
			w, err := thaw(r.s, ck, hook, a)
			if err != nil {
				return 0, err
			}
			if err := w.runInto(opts.Meter, out); err != nil {
				return 0, err
			}
			keep(first[i]+arm, out)
		}
		return ck.events, nil
	})
	if err != nil {
		return warm, err
	}
	for i := range runs {
		if runs[i].fork != 0 {
			warm.record(warmups[i], len(runs[i].arms))
		}
	}
	return warm, nil
}

// compared appends the runs of a one-VM scenario under the dynticks
// baseline and then paratick, the pair each Fig. 4–6 comparison reads.
func (o Options) compared(runs []run, name string, vm VMSpec, seed uint64) []run {
	for _, mode := range []core.Mode{core.DynticksIdle, core.Paratick} {
		vm.Mode = mode
		runs = append(runs, run{s: o.oneVM(name, vm), seed: seed})
	}
	return runs
}
