package main

import (
	"fmt"
	"strings"
	"time"

	"paratick/internal/core"
	"paratick/internal/experiment"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
	"paratick/internal/workload"
)

// benchScale sizes io-lanes and paper-suite, matching the repo's smoke runs.
const benchScale = 0.05

// workloadSpec is one benchmark workload: the world its ops run and how many
// warm ops follow each round's cold op.
type workloadSpec struct {
	name string
	// seeds is how many consecutive seeds the ops cycle through: op i runs
	// seed base + i mod seeds. sync-wakeups cycles 512 because its per-op
	// allocations vary by up to 7x between seeds (sd 28% of the mean), so
	// fewer left allocs_per_op depending on which seeds -seed picks: over 64
	// seeds it spread 5% between runs. paper-suite, whose reference pass per
	// seed is costly, cycles fewer.
	seeds int
	// warm is the number of warm ops after each round's cold op, chosen so a
	// round takes about a second on the reference machine and a run gathers
	// a dozen or more cold ops for setup_s.
	warm int
	// world is the scenario a Session op runs. paper-suite ops are whole
	// passes of the nine -run all runners instead; its world is the
	// single-VM reference scenario the checkpoint flags and the fork path
	// run, and it feeds only the traced and snapshot probes.
	world experiment.Scenario
	// session marks workloads whose ops run world through a Session.
	session bool
}

// workloads returns the four workloads in the order rounds interleave them.
func workloads() ([]*workloadSpec, error) {
	opts := experiment.DefaultOptions()
	opts.Scale = benchScale
	lanes := opts
	lanes.Quantum = sim.Millisecond
	lanes.Shards = 2
	fleet, err := experiment.ShardFleetScenario(lanes, 16)
	if err != nil {
		return nil, err
	}
	return []*workloadSpec{
		{name: "tick-exits", seeds: 64, warm: 60, session: true,
			world: table1Fleet("tick-exits", core.Periodic, sched.FIFO, 0, nil)},
		{name: "sync-wakeups", seeds: 512, warm: 60, session: true,
			world: table1Fleet("sync-wakeups", core.Paratick, sched.Fair, 16, spawnSync)},
		{name: "io-lanes", seeds: 64, warm: 40, session: true, world: fleet},
		{name: "paper-suite", seeds: 16, warm: 5, world: experiment.ReferenceScenario(opts)},
	}, nil
}

// table1Fleet is Table 1's consolidation host: four 16-vCPU VMs on the
// 16-pCPU machine with vCPU i pinned to pCPU i (4:1 overcommit), run for one
// simulated second.
func table1Fleet(name string, mode core.Mode, policy sched.Kind, taskHint int, setup func(*kvm.VM) error) experiment.Scenario {
	placement := make([]hw.CPUID, 16)
	for i := range placement {
		placement[i] = hw.CPUID(i)
	}
	s := experiment.Scenario{
		Name:        name,
		Topology:    hw.SmallTopology(),
		SchedPolicy: policy,
		Duration:    sim.Second,
	}
	for n := 0; n < 4; n++ {
		s.VMs = append(s.VMs, experiment.VMSpec{
			Name: fmt.Sprintf("vm%d", n), Mode: mode, Placement: placement,
			TaskHint: taskHint, Setup: setup,
		})
	}
	return s
}

// spawnSync starts the §3.3 sync benchmark at 8000 syncs/s: 16 threads
// rendezvousing in pairs for the whole simulated second.
func spawnSync(vm *kvm.VM) error {
	b := workload.DefaultSyncBench()
	b.SyncsPerSec = 8000
	b.Duration = sim.Second
	return b.Spawn(vm.Kernel())
}

// opRunner executes a workload's ops against state that persists across
// the ops of one round: a Session, or a WorkerPool for paper-suite.
type opRunner interface {
	// run executes one op and returns the engine events it dispatched.
	run(seed uint64) (uint64, error)
	// digest hashes the last op's output. It is called outside the timed
	// window.
	digest() snap.Digest
}

// newRunner returns a cold runner: its first op builds every world.
func (w *workloadSpec) newRunner() opRunner {
	if w.session {
		return &sessionRunner{sess: experiment.NewSession(), sc: w.world}
	}
	return newSuiteRunner(false)
}

// reference computes the digest every op at seed must reproduce, through
// the unpooled serial path: a fresh RunScenario, or a suite pass with
// NoArena and one worker.
func (w *workloadSpec) reference(seed uint64) (snap.Digest, error) {
	if w.session {
		return worldReference(w.world, seed)
	}
	r := newSuiteRunner(true)
	if _, err := r.run(seed); err != nil {
		return 0, err
	}
	return r.digest(), nil
}

// worldReference digests a fresh, unpooled run of the scenario.
func worldReference(sc experiment.Scenario, seed uint64) (snap.Digest, error) {
	res, err := experiment.RunScenario(sc, seed)
	if err != nil {
		return 0, err
	}
	return resultDigest(res), nil
}

// resultDigest hashes every field of a scenario result.
func resultDigest(res *experiment.ScenarioResult) snap.Digest {
	return snap.HashBytes([]byte(fmt.Sprintf("%+v", *res)))
}

type sessionRunner struct {
	sess *experiment.Session
	sc   experiment.Scenario
	res  experiment.ScenarioResult
}

func (r *sessionRunner) run(seed uint64) (uint64, error) {
	if err := r.sess.RunScenarioInto(r.sc, seed, nil, &r.res); err != nil {
		return 0, err
	}
	return r.res.Events, nil
}

func (r *sessionRunner) digest() snap.Digest { return resultDigest(&r.res) }

// suiteStep is one of the nine runners behind paratick-bench -run all,
// returning its rendered report.
type suiteStep struct {
	name string
	run  func(experiment.Options) (string, error)
}

func render[T interface{ Render() string }](r T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

var suite = []suiteStep{
	{"table1", func(o experiment.Options) (string, error) { return render(experiment.RunTable1(o)) }},
	{"fig4", func(o experiment.Options) (string, error) { return render(experiment.RunFig4(o)) }},
	{"fig5", func(o experiment.Options) (string, error) {
		figs, err := experiment.RunFig5(o)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, f := range figs {
			b.WriteString(f.Render())
		}
		return b.String(), nil
	}},
	{"fig6", func(o experiment.Options) (string, error) { return render(experiment.RunFig6(o)) }},
	{"crossover", func(o experiment.Options) (string, error) { return render(experiment.RunCrossover(o)) }},
	{"consolidation", func(o experiment.Options) (string, error) { return render(experiment.RunConsolidation(o)) }},
	{"overcommit", func(o experiment.Options) (string, error) { return render(experiment.RunOvercommit(o)) }},
	{"ablation", experiment.RunAllAblations},
	{"shardfleet", func(o experiment.Options) (string, error) {
		o.Shards = 2
		return render(experiment.RunShardFleet(o, 16))
	}},
}

// suiteRunner runs one pass of the nine runners per op, sharing one
// WorkerPool across its passes.
type suiteRunner struct {
	opts  experiment.Options
	meter metrics.Meter
	out   [][]byte
	// stepWall holds each runner's wall time in the last pass.
	stepWall []time.Duration
}

// newSuiteRunner returns a one-worker runner at scale 0.05: pooled, or, for
// references, unpooled. One worker because the benchmark runs on one P,
// where a second worker adds no speed and lets goroutine interleaving pick
// which worker pools which world, which made the live heap bimodal
// (2.4 or 3.2 MiB after a pass).
func newSuiteRunner(reference bool) *suiteRunner {
	r := &suiteRunner{out: make([][]byte, len(suite)), stepWall: make([]time.Duration, len(suite))}
	r.opts = experiment.DefaultOptions()
	r.opts.Scale = benchScale
	r.opts.Meter = &r.meter
	r.opts.Workers = 1
	r.opts.NoArena = reference
	if !reference {
		r.opts.Pool = experiment.NewWorkerPool()
	}
	return r
}

func (r *suiteRunner) run(seed uint64) (uint64, error) {
	r.opts.Seed = seed
	before := r.meter.Events()
	for i, s := range suite {
		t0 := time.Now()
		out, err := s.run(r.opts)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
		r.stepWall[i] = time.Since(t0)
		r.out[i] = append(r.out[i][:0], out...)
	}
	return r.meter.Events() - before, nil
}

func (r *suiteRunner) digest() snap.Digest {
	var b []byte
	for i, out := range r.out {
		b = append(b, suite[i].name...)
		b = append(b, '\n')
		b = append(b, out...)
	}
	return snap.HashBytes(b)
}
