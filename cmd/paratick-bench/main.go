// Command paratick-bench regenerates the paper's evaluation: Table 1 and
// Figures 4–6 with their aggregate Tables 2–4, plus the ablation studies.
//
// Usage:
//
//	paratick-bench [-run all|table1|fig4|fig5|fig6|crossover|consolidation|
//	                overcommit|ablation|shardfleet] [-scale 1.0] [-sched fifo|fair]
//	               [-seed 1] [-device nvme|sata-ssd|hdd] [-out DIR]
//	               [-workers N] [-shards N] [-quantum D] [-no-arena]
//	               [-manifest FILE]
//	               [-cpuprofile FILE] [-memprofile FILE]
//	paratick-bench -perf-suite [-perf-out FILE.json] [-perf-baseline FILE.json]
//	               [-perf-threshold 1.25]
//	paratick-bench -checkpoint-out FILE [-checkpoint-at 10ms]
//	paratick-bench -checkpoint-in FILE
//
// -scale shrinks the workloads for quick runs (0.1 ≈ a tenth of the paper's
// durations). -out additionally writes each table as CSV into DIR. -workers
// fans independent simulation runs across N goroutines (0 = one per CPU);
// output is byte-identical regardless of worker count. -no-arena disables
// the host/VM arena pooling that recycles worlds across a worker's runs —
// pooling is execution-only, so output is byte-identical either way (the CI
// arena differential diffs both). -manifest writes the run's flags, source
// and Go versions, and totals, with one timing record per experiment (wall
// clock, events fired, events/sec).
//
// Intra-run sharding:
//
//   - -quantum D switches scenarios into lane mode: one event shard per
//     socket, coordinated by a conservative time-quantum barrier of width D.
//     Lane mode is a semantic switch — it changes the modeled schedule (and
//     requires every VM to fit inside one socket) — so its output differs
//     from the serial default, but depends only on (seed, scale, quantum).
//   - -shards N runs the lanes on up to N goroutines. Sharding is execution
//     only: any -shards value produces byte-identical output, which the CI
//     sharded-determinism gate enforces by diffing -shards 1 against
//     -shards 4.
//   - -run shardfleet runs the canonical lane-mode workload: a fleet of
//     socket-contained VMs coupled by a cross-socket IPI ring (it defaults
//     -quantum to 1ms when unset).
//
// -perf-suite runs the pinned micro-benchmark kernels of internal/perf
// (timer wheel, event engine, one end-to-end experiment) via
// testing.Benchmark and prints ns/op, allocs/op, and events/sec. -perf-out
// writes the machine-readable report; -perf-baseline compares against a
// committed report (BENCH_PR10.json) and fails when any kernel's ns/op grows
// past -perf-threshold or its allocs/op grows at all.
//
// Checkpointing:
//
//   - -checkpoint-out runs the reference scenario's warmup to -checkpoint-at
//     (simulated time) and freezes the complete simulator state into FILE.
//     The bytes are deterministic: the same flags always produce the same
//     file, regardless of -workers or host parallelism.
//   - -checkpoint-in restores FILE into a rebuilt reference scenario and runs
//     it to completion, printing the same totals a straight run reports. The
//     run-shaping flags (-scale, -seed, -device, -sched) must match the
//     checkpointing invocation; a structurally different scenario is refused.
//   - -snapshot-probe T enables the mid-run differential gate inside every
//     experiment run: at simulated instant T the state is snapshotted,
//     restored into a fresh world, verified to re-serialize byte-identically,
//     and the run continues on the restored copy — so the rendered output
//     proves restore correctness end to end.
//
// Observability extras:
//
//   - -manifest writes a JSON run manifest: seed, scale, workers, device,
//     git version, wall clock, and aggregate events/sec.
//   - -cpuprofile / -memprofile write pprof profiles of the bench process.
//   - Per-event traces of a single scenario come from paratick-sim -trace,
//     which also exports them as Chrome trace-event JSON (-trace-out).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"paratick/internal/experiment"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paratick-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paratick-bench", flag.ContinueOnError)
	runSel := fs.String("run", "all", "experiment to run: all, table1, fig4, fig5, fig6, crossover, consolidation, overcommit, ablation, shardfleet")
	scale := fs.Float64("scale", 1.0, "workload duration scale (1.0 = paper-sized)")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	device := fs.String("device", "nvme", "block device profile: nvme, sata-ssd, hdd")
	repeats := fs.Int("repeats", 1, "average fig4 and fig5 over this many seeds (paper: 3-15); other experiments run once")
	workers := fs.Int("workers", 0, "parallel simulation workers (0 = one per CPU)")
	shards := fs.Int("shards", 0, "intra-run event shards per scenario; >1 requires -quantum (output is byte-identical for any value)")
	quantum := fs.Duration("quantum", 0, "lane-mode barrier quantum (0 = serial legacy engine)")
	schedPolicy := fs.String("sched", "fifo", "host vCPU scheduler for the experiments: fifo, fair (the overcommit sweep always compares both)")
	out := fs.String("out", "", "directory for CSV output (optional)")
	manifestPath := fs.String("manifest", "", "file for the run-manifest JSON (optional)")
	cpuProfile := fs.String("cpuprofile", "", "file for a pprof CPU profile (optional)")
	memProfile := fs.String("memprofile", "", "file for a pprof heap profile (optional)")
	perfSuite := fs.Bool("perf-suite", false, "run the pinned micro-benchmark suite (internal/perf) instead of the experiments")
	perfOut := fs.String("perf-out", "", "file for the perf-suite report JSON (optional)")
	perfBaseline := fs.String("perf-baseline", "", "baseline report JSON to compare against; regressions beyond -perf-threshold fail (optional)")
	perfThreshold := fs.Float64("perf-threshold", 1.25, "max tolerated ns/op ratio vs the perf baseline")
	ckOut := fs.String("checkpoint-out", "", "freeze the reference scenario at -checkpoint-at into this file instead of running experiments")
	ckIn := fs.String("checkpoint-in", "", "restore a checkpoint file into the reference scenario and run it to completion instead of running experiments")
	ckAt := fs.Duration("checkpoint-at", 10*time.Millisecond, "simulated freeze instant for -checkpoint-out")
	probeAt := fs.Duration("snapshot-probe", 0, "simulated instant for the mid-run snapshot round-trip gate inside every experiment (0 = off)")
	noArena := fs.Bool("no-arena", false, "disable host/VM arena pooling and build every world fresh (output is byte-identical either way)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *perfSuite {
		return runPerfSuite(w, *perfOut, *perfBaseline, *perfThreshold)
	}

	opts := experiment.DefaultOptions()
	opts.Seed = *seed
	opts.Scale = *scale
	opts.Repeats = *repeats
	opts.Workers = *workers
	pol, err := sched.Parse(*schedPolicy)
	if err != nil {
		return err
	}
	opts.SchedPolicy = pol
	switch *device {
	case "nvme":
		opts.Device = iodev.NVMe()
	case "sata-ssd":
		opts.Device = iodev.SataSSD()
	case "hdd":
		opts.Device = iodev.HDD()
	default:
		return fmt.Errorf("unknown device %q", *device)
	}
	opts.SnapshotProbe = sim.Time(probeAt.Nanoseconds())
	opts.NoArena = *noArena
	// Shards>1 without a quantum is rejected by the experiment executor's
	// Validate — except for shardfleet, which first defaults the quantum.
	opts.Shards = *shards
	opts.Quantum = sim.Time(quantum.Nanoseconds())
	if *ckOut != "" || *ckIn != "" {
		return runCheckpoint(w, opts, *ckOut, *ckIn, sim.Time(ckAt.Nanoseconds()))
	}
	if *runSel != "all" && !slices.ContainsFunc(steps, func(s step) bool { return s.name == *runSel }) {
		return fmt.Errorf("unknown experiment %q", *runSel)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	b := &bench{opts: opts, out: *out, w: w}
	all := *runSel == "all"
	start := time.Now()
	for _, s := range steps {
		if all || *runSel == s.name {
			if err := b.measure(s.name, s.fn); err != nil {
				return err
			}
		}
	}
	wall := time.Since(start)

	if *manifestPath != "" {
		if err := writeManifest(*manifestPath, opts, *device, wall, b.records); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *manifestPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "done in %v (scale %.2f, seed %d, workers %d)\n",
		wall.Round(time.Millisecond), *scale, *seed, b.opts.WorkerCount())
	return nil
}

// step is one -run experiment: its name and the function that runs it,
// printing its header and report only once the runner has succeeded.
type step struct {
	name string
	fn   func(experiment.Options, string, io.Writer) error
}

// steps lists the experiments in the order -run all runs them.
var steps = []step{
	{"table1", runTable1},
	{"fig4", runFig4},
	{"fig5", runFig5},
	{"fig6", runFig6},
	{"crossover", runCrossover},
	{"consolidation", runConsolidation},
	{"overcommit", runOvercommit},
	{"ablation", runAblation},
	{"shardfleet", runShardFleet},
}

// runCheckpoint drives -checkpoint-out / -checkpoint-in on the reference
// scenario: freeze the warmed-up simulator state into a file, or restore a
// frozen state and run it to completion. The checkpoint bytes depend only on
// the run-shaping flags, never on -workers, so a committed checkpoint doubles
// as a golden file for the encoding.
func runCheckpoint(w io.Writer, opts experiment.Options, outPath, inPath string, at sim.Time) error {
	s := experiment.ReferenceScenario(opts)
	if outPath != "" {
		ck, err := experiment.CheckpointScenario(s, opts.Seed, at)
		if err != nil {
			return err
		}
		data := ck.Bytes()
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint: froze %q at %v after %d events (%d bytes) into %s\n",
			s.Name, ck.At(), ck.Events(), len(data), outPath)
	}
	if inPath != "" {
		data, err := os.ReadFile(inPath)
		if err != nil {
			return err
		}
		ck, err := experiment.LoadCheckpoint(data)
		if err != nil {
			return err
		}
		res, err := experiment.ResumeScenario(s, ck)
		if err != nil {
			return err
		}
		c := &res.Results[0].Counters
		fmt.Fprintf(w, "resumed: %q from %v (seed %d): %d events total, %d VM exits (%d timer-related)\n",
			s.Name, ck.At(), ck.Seed(), res.Events, c.TotalExits(), c.TimerExits())
	}
	return nil
}

// manifest is the -manifest run record: enough to reproduce and rate the run.
type manifest struct {
	Seed         uint64        `json:"seed"`
	Scale        float64       `json:"scale"`
	Workers      int           `json:"workers"`
	Shards       int           `json:"shards"`
	QuantumNs    int64         `json:"quantum_ns"`
	Repeats      int           `json:"repeats"`
	Device       string        `json:"device"`
	GitVersion   string        `json:"git_version,omitempty"`
	GoVersion    string        `json:"go_version"`
	WallNs       int64         `json:"wall_ns"`
	Runs         uint64        `json:"runs"`
	Events       uint64        `json:"events"`
	EventsPerSec float64       `json:"events_per_sec"`
	Experiments  []benchRecord `json:"experiments"`
}

func writeManifest(path string, opts experiment.Options, device string, wall time.Duration, records []benchRecord) error {
	m := manifest{
		Seed:        opts.Seed,
		Scale:       opts.Scale,
		Workers:     opts.WorkerCount(),
		Shards:      opts.Shards,
		QuantumNs:   int64(opts.Quantum),
		Repeats:     opts.Repeats,
		Device:      device,
		GitVersion:  gitDescribe(),
		GoVersion:   runtime.Version(),
		WallNs:      wall.Nanoseconds(),
		Experiments: records,
	}
	for _, r := range records {
		m.Runs += r.Runs
		m.Events += r.Events
	}
	if secs := wall.Seconds(); secs > 0 {
		m.EventsPerSec = float64(m.Events) / secs
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitDescribe returns a best-effort source version; "" outside a git
// checkout or without git installed.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// benchRecord is one experiment's timing entry in the -manifest record.
type benchRecord struct {
	Name         string  `json:"name"`
	WallNs       int64   `json:"wall_ns"`
	Runs         uint64  `json:"runs"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Workers      int     `json:"workers"`
}

// bench runs experiments with a fresh Meter each, recording wall-clock and
// engine throughput per experiment.
type bench struct {
	opts    experiment.Options
	out     string
	w       io.Writer
	records []benchRecord
}

func (b *bench) measure(name string, fn func(experiment.Options, string, io.Writer) error) error {
	opts := b.opts
	m := &metrics.Meter{}
	opts.Meter = m
	start := time.Now()
	if err := fn(opts, b.out, b.w); err != nil {
		return err
	}
	wall := time.Since(start)
	rec := benchRecord{
		Name:         name,
		WallNs:       wall.Nanoseconds(),
		Runs:         m.Runs(),
		Events:       m.Events(),
		EventsPerSec: m.EventsPerSec(wall.Seconds()),
		Workers:      b.opts.WorkerCount(),
	}
	b.records = append(b.records, rec)
	fmt.Fprintf(b.w, "[%s] %v wall, %d runs, %d events, %.0f events/sec\n\n",
		name, wall.Round(time.Millisecond), rec.Runs, rec.Events, rec.EventsPerSec)
	return nil
}

func writeCSV(dir, name string, t *metrics.Table, w io.Writer) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  wrote %s\n", path)
	return nil
}

func runTable1(opts experiment.Options, out string, w io.Writer) error {
	res, err := experiment.RunTable1(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table 1: hypothetical workloads (analytic + simulated) ==")
	fmt.Fprintln(w, res.Render())
	return nil
}

func runFig4(opts experiment.Options, out string, w io.Writer) error {
	fig, err := experiment.RunFig4(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 4 + Table 2: sequential PARSEC ==")
	fmt.Fprintln(w, fig.Render())
	fmt.Fprintln(w, fig.Table().String())
	fmt.Fprintln(w, experiment.RenderTable2(fig).String())
	if err := writeCSV(out, "fig4", fig.Table(), w); err != nil {
		return err
	}
	return writeCSV(out, "table2", experiment.RenderTable2(fig), w)
}

func runFig5(opts experiment.Options, out string, w io.Writer) error {
	figs, err := experiment.RunFig5(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 5 + Table 3: multithreaded PARSEC ==")
	for i, fig := range figs {
		fmt.Fprintln(w, fig.Render())
		if err := writeCSV(out, fmt.Sprintf("fig5-%s", experiment.VMSizes()[i].Name), fig.Table(), w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, experiment.RenderTable3(figs).String())
	return writeCSV(out, "table3", experiment.RenderTable3(figs), w)
}

func runFig6(opts experiment.Options, out string, w io.Writer) error {
	fig, err := experiment.RunFig6(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 6 + Table 4: phoronix-fio ==")
	fmt.Fprintln(w, fig.Render())
	fmt.Fprintln(w, fig.Table().String())
	fmt.Fprintln(w, experiment.RenderTable4(fig).String())
	if err := writeCSV(out, "fig6", fig.Table(), w); err != nil {
		return err
	}
	return writeCSV(out, "table4", experiment.RenderTable4(fig), w)
}

func runCrossover(opts experiment.Options, out string, w io.Writer) error {
	res, err := experiment.RunCrossover(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== §3.3 crossover sweep: to tick or not to tick ==")
	fmt.Fprintln(w, res.Render())
	return writeCSV(out, "crossover", res.Table(), w)
}

func runConsolidation(opts experiment.Options, out string, w io.Writer) error {
	res, err := experiment.RunConsolidation(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== §3.1 consolidation: mixed fleet, 2:1 overcommit ==")
	fmt.Fprintln(w, res.Render())
	return nil
}

func runOvercommit(opts experiment.Options, out string, w io.Writer) error {
	res, err := experiment.RunOvercommit(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Overcommit sweep: 1:1→4:1, fifo vs fair host scheduling ==")
	fmt.Fprintln(w, res.Render())
	return writeCSV(out, "overcommit", res.Table(), w)
}

func runAblation(opts experiment.Options, out string, w io.Writer) error {
	s, err := experiment.RunAllAblations(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Ablations ==")
	fmt.Fprintln(w, s)
	return nil
}

// shardFleetVMs is the fleet size -run shardfleet simulates: four
// socket-contained VMs per socket of the paper topology.
const shardFleetVMs = 16

func runShardFleet(opts experiment.Options, out string, w io.Writer) error {
	res, err := experiment.RunShardFleet(opts, shardFleetVMs)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Shard fleet: lane-mode determinism workload ==")
	fmt.Fprintln(w, res.Render())
	return nil
}
