// Command bench is the repository benchmark. It runs four workloads
// through the public experiment API, closed-loop with one caller, checks
// every op's simulated output against an unpooled reference run, and
// reports end-to-end metrics per workload. A separate per-layer pass taps
// the engine's dispatch observer, reads the exact simulated counters, and
// times direct calls into each layer.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-seed N] [-out FILE]
//	bash bench/run.sh -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//
// Without -workload it runs the full set: ten rounds interleaving all four
// workloads, then the per-layer pass of each. With -workload it runs rounds
// of that workload for -seconds (-trace 0) or its per-layer pass (-trace 1),
// and prints the result as one JSON object on the last line of output. It
// exits 1 when any op's output is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// setRounds is how many interleaved rounds the full set runs, and
// setTraceBudget how long it alternates untraced and traced runs of each
// workload's world: one second keeps the full set, with its 656 reference
// runs, within about 85 s on the reference machine.
const (
	setRounds      = 10
	setTraceBudget = time.Second
)

func run(args []string, w io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	only := fs.String("workload", "", "run one workload (tick-exits, sync-wakeups, io-lanes, paper-suite); empty runs the full set")
	seed := fs.Uint64("seed", 1, "base seed: op i runs seed + i mod the workload's seed count (64; 512 for sync-wakeups, 16 for paper-suite)")
	seconds := fs.Int("seconds", 15, "with -workload: seconds of rounds to run (at least one round), or of traced runs with -trace 1")
	traced := fs.Int("trace", 0, "with -workload: 1 runs the per-layer pass instead of the timed rounds")
	out := fs.String("out", "", "file for the JSON report: provenance, every op sample, quantiles, and metrics")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() > 0 {
		return 0, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		return 0, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	// One P: on the 2-vCPU reference machine, two-thread speedup swung
	// between 1.2x and 1.7x from minute to minute, which no per-run
	// statistic can cancel. The pooled runner and shard workers still run
	// as goroutines, interleaved on that P.
	runtime.GOMAXPROCS(1)
	all, err := workloads()
	if err != nil {
		return 0, err
	}
	specs := all
	if *only != "" {
		specs = nil
		for _, s := range all {
			if s.name == *only {
				specs = append(specs, s)
			}
		}
		if specs == nil {
			return 0, fmt.Errorf("unknown workload %q", *only)
		}
	}
	rep := &report{Provenance: newProvenance(*seed)}
	rep.Provenance.print(w)
	budget := time.Duration(*seconds) * time.Second
	switch {
	case *only == "":
		if err := rep.runRounds(specs, *seed, setRounds, 0, w); err != nil {
			return 0, err
		}
		if err := rep.runLayers(specs, *seed, setTraceBudget, w); err != nil {
			return 0, err
		}
	case *traced == 0:
		if err := rep.runRounds(specs, *seed, 1, budget, w); err != nil {
			return 0, err
		}
	default:
		if err := rep.runLayers(specs, *seed, budget, w); err != nil {
			return 0, err
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return 0, err
		}
	}
	attempted, failed := rep.totals()
	if *only != "" {
		res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
		for _, m := range rep.metricsOf(*only, *traced == 1) {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return 0, err
		}
		fmt.Fprintln(w, string(line))
	}
	if failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// result is the last line of a -workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the -out file.
type report struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadReport `json:"workloads"`
	// Shared holds the per-layer probes that do not depend on a workload.
	Shared map[string]value `json:"shared_layers,omitempty"`
	shared []metric
}

type workloadReport struct {
	Name      string              `json:"name"`
	Ops       int                 `json:"ops"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]value    `json:"end_to_end,omitempty"`
	Quantiles map[string]quartile `json:"quantiles,omitempty"`
	Layers    map[string]value    `json:"layers,omitempty"`
	Samples   []opSample          `json:"samples,omitempty"`
	HeldMiB   []float64           `json:"held_heap_mib_per_round,omitempty"`
	TracedOps int                 `json:"traced_ops,omitempty"`
	e2e       []metric
	layers    *layerPass
}

type quartile struct {
	P10 float64 `json:"p10"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
}

func quartiles(xs []float64) quartile {
	return quartile{quantile(xs, 0.1), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.9)}
}

func (rep *report) workload(name string) *workloadReport {
	for _, wr := range rep.Workloads {
		if wr.Name == name {
			return wr
		}
	}
	wr := &workloadReport{Name: name}
	rep.Workloads = append(rep.Workloads, wr)
	return wr
}

// runRounds runs rounds interleaving the workloads, at least minRounds and
// until budget elapses, then prints each workload's end-to-end metrics.
func (rep *report) runRounds(specs []*workloadSpec, base uint64, minRounds int, budget time.Duration, w io.Writer) error {
	runs := make([]*workloadRun, len(specs))
	for i, s := range specs {
		runs[i] = newWorkloadRun(s, base)
		if err := runs[i].prepare(); err != nil {
			return err
		}
	}
	runtime.GC()
	start := time.Now()
	for rep.Provenance.Rounds < minRounds || time.Since(start) < budget {
		for _, r := range runs {
			r.round()
		}
		rep.Provenance.Rounds++
	}
	for _, r := range runs {
		wr := rep.workload(r.spec.name)
		wr.Ops, wr.Failed, wr.Samples, wr.HeldMiB = len(r.ops), r.failed, r.ops, r.heldMiB
		wr.e2e = r.endToEnd()
		wr.EndToEnd = asValues(wr.e2e)
		var wall, cpu []float64
		for _, s := range r.ops {
			if !s.Cold {
				wall = append(wall, float64(s.WallNs))
				cpu = append(cpu, float64(s.CPUNs))
			}
		}
		wr.Quantiles = map[string]quartile{"warm_wall_ns": quartiles(wall), "warm_cpu_ns": quartiles(cpu)}
		fmt.Fprintf(w, "%s: %d ops in %d rounds, %d failed; warm op wall p10 %.3f ms, p50 %.3f ms, p90 %.3f ms\n",
			r.spec.name, len(r.ops), rep.Provenance.Rounds, r.failed,
			wr.Quantiles["warm_wall_ns"].P10/1e6, wr.Quantiles["warm_wall_ns"].P50/1e6, wr.Quantiles["warm_wall_ns"].P90/1e6)
		if r.firstErr != nil {
			fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
		}
		printMetrics(w, wr.e2e)
	}
	return nil
}

// runLayers runs each workload's per-layer pass and the shared probes, then
// scales their host times to the reference machine by calibration samples
// taken before and after.
func (rep *report) runLayers(specs []*workloadSpec, base uint64, budget time.Duration, w io.Writer) error {
	cal := calibrations()
	var passes []*layerPass
	for _, s := range specs {
		lp, err := worldLayers(s, base, budget, w)
		if err != nil {
			return err
		}
		if lp.firstErr != nil {
			fmt.Fprintf(w, "  first failure: %v\n", lp.firstErr)
		}
		passes = append(passes, lp)
	}
	shared, err := sharedProbes(base)
	if err != nil {
		return err
	}
	slowdown := slowdownOf(append(cal, calibrations()...))
	for _, lp := range passes {
		atReferenceSpeed(lp.metrics, slowdown)
		wr := rep.workload(lp.spec.name)
		wr.layers = lp
		wr.TracedOps = lp.attempted
		wr.Layers = asValues(lp.metrics)
		fmt.Fprintf(w, "%s per-layer metrics:\n", lp.spec.name)
		printMetrics(w, lp.metrics)
	}
	atReferenceSpeed(shared, slowdown)
	rep.shared = shared
	rep.Shared = asValues(shared)
	fmt.Fprintln(w, "shared per-layer probes:")
	printMetrics(w, shared)
	return nil
}

// metricsOf returns one workload's end-to-end or per-layer metrics.
func (rep *report) metricsOf(name string, layers bool) []metric {
	wr := rep.workload(name)
	if !layers {
		return wr.e2e
	}
	return append(append([]metric(nil), wr.layers.metrics...), rep.shared...)
}

// totals counts the checked ops and the failed ones across workloads.
func (rep *report) totals() (attempted, failed int) {
	for _, wr := range rep.Workloads {
		attempted += wr.Ops
		failed += wr.Failed
		if wr.layers != nil {
			attempted += wr.layers.attempted
			failed += wr.layers.failed
		}
	}
	return attempted, failed
}

func asValues(ms []metric) map[string]value {
	out := make(map[string]value, len(ms))
	for _, m := range ms {
		out[m.name] = value{m.value, m.unit}
	}
	return out
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", m.name, m.value, m.unit)
	}
}

// provenance records the machine and settings a report was measured with.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Git        string `json:"git_describe"`
	Seed       uint64 `json:"seed"`
	Rounds     int    `json:"rounds"`
}

func newProvenance(seed uint64) provenance {
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Git: gitDescribe(), Seed: seed,
	}
}

func (p provenance) print(w io.Writer) {
	fmt.Fprintf(w, "nproc %d, GOMAXPROCS %d, %s/%s, %s, cpu %q, git %q, seed %d\n",
		p.NProc, p.GOMAXPROCS, p.GOOS, p.GOARCH, p.GoVersion, p.CPUModel, p.Git, p.Seed)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" where
// there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitDescribe names the source version when run from the root of a git
// checkout, and is "" anywhere else.
func gitDescribe() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
