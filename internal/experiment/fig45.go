package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/workload"
)

// ParsecFigure holds one Fig. 4 / Fig. 5 panel set: per-benchmark relative
// VM exits, system throughput, and execution time of paratick vs vanilla,
// plus the corresponding aggregate table (Table 2 / Table 3 row).
type ParsecFigure struct {
	Title       string
	Comparisons []metrics.Comparison
	Aggregate   metrics.Aggregate
	// Spread carries repeat-to-repeat statistics when Options.Repeats > 1
	// (nil otherwise). Comparisons then hold per-benchmark means.
	Spread *metrics.AggregateSpread
}

// RunFig4 reproduces Fig. 4 + Table 2: the 13 PARSEC benchmarks in
// sequential mode on a 1-vCPU VM. With Options.Repeats > 1, results are
// averaged over consecutive seeds.
func RunFig4(opts Options) (*ParsecFigure, error) {
	return repeatFigure(opts, runFig4Once)
}

func runFig4Once(opts Options) (*ParsecFigure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	fig := &ParsecFigure{Title: "Figure 4: sequential PARSEC (1 vCPU)"}
	profiles := workload.Profiles()
	comps, err := runParallel(opts, len(profiles),
		func(i int, a *arena) (metrics.Comparison, error) {
			p := profiles[i]
			s := opts.oneVM("parsec-seq/"+p.Name, VMSpec{
				VCPUs: 1,
				Setup: func(vm *kvm.VM) error {
					dev, err := vm.AttachDevice("disk0", opts.Device)
					if err != nil {
						return err
					}
					prog, err := p.SequentialProgram(dev, opts.Scale)
					if err != nil {
						return err
					}
					vm.Kernel().Spawn(p.Name, 0, prog)
					return nil
				},
			})
			cmp, err := compareModes(s, opts.Seed, opts.Meter, a)
			if err != nil {
				return metrics.Comparison{}, err
			}
			cmp.Name = p.Name
			return cmp, nil
		})
	if err != nil {
		return nil, err
	}
	fig.Comparisons = comps
	fig.Aggregate = metrics.Aggregated(fig.Comparisons)
	return fig, nil
}

// VMSize is one of the paper's §6.2 scenarios.
type VMSize struct {
	Name    string
	VCPUs   int
	Sockets int
}

// VMSizes returns the paper's small/medium/large VM placements.
func VMSizes() []VMSize {
	return []VMSize{
		{Name: "small", VCPUs: 4, Sockets: 1},
		{Name: "medium", VCPUs: 16, Sockets: 2},
		{Name: "large", VCPUs: 64, Sockets: 4},
	}
}

// RunFig5Size reproduces one VM size of Fig. 5: the 13 benchmarks with
// parallelism equal to the vCPU count. With Options.Repeats > 1, results
// are averaged over consecutive seeds.
func RunFig5Size(opts Options, size VMSize) (*ParsecFigure, error) {
	return repeatFigure(opts, func(o Options) (*ParsecFigure, error) {
		return runFig5SizeOnce(o, size)
	})
}

func runFig5SizeOnce(opts Options, size VMSize) (*ParsecFigure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	fig := &ParsecFigure{Title: fmt.Sprintf("Figure 5 (%s VM, %d vCPUs over %d sockets)",
		size.Name, size.VCPUs, size.Sockets)}
	profiles := workload.Profiles()
	comps, err := runParallel(opts, len(profiles),
		func(i int, a *arena) (metrics.Comparison, error) {
			p := profiles[i]
			s := opts.oneVM("parsec-par/"+size.Name+"/"+p.Name, VMSpec{
				VCPUs:   size.VCPUs,
				Sockets: size.Sockets,
				Setup: func(vm *kvm.VM) error {
					dev, err := vm.AttachDevice("disk0", opts.Device)
					if err != nil {
						return err
					}
					_, err = p.SpawnParallel(vm.Kernel(), size.VCPUs, dev, opts.Scale)
					return err
				},
			})
			cmp, err := compareModes(s, opts.Seed, opts.Meter, a)
			if err != nil {
				return metrics.Comparison{}, err
			}
			cmp.Name = p.Name
			return cmp, nil
		})
	if err != nil {
		return nil, err
	}
	fig.Comparisons = comps
	fig.Aggregate = metrics.Aggregated(fig.Comparisons)
	return fig, nil
}

// RunFig5 reproduces all three VM sizes of Fig. 5 + Table 3.
func RunFig5(opts Options) ([]*ParsecFigure, error) {
	var out []*ParsecFigure
	for _, size := range VMSizes() {
		fig, err := RunFig5Size(opts, size)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// repeatFigure runs a figure Options.Repeats times with consecutive seeds
// and averages the per-benchmark deltas. Repeats fan out across the worker
// pool (each repeat's runs fan out further); figures are accumulated in
// repeat order, so the float additions — and therefore the averaged output —
// are byte-identical to a serial loop.
func repeatFigure(opts Options, once func(Options) (*ParsecFigure, error)) (*ParsecFigure, error) {
	n := opts.repeatCount()
	if n == 1 {
		return once(opts)
	}
	figs, err := runParallel(opts, n, func(r int, _ *arena) (*ParsecFigure, error) {
		o := opts
		o.Seed = opts.Seed + uint64(r)
		return once(o)
	})
	if err != nil {
		return nil, err
	}
	var base *ParsecFigure
	var aggs []metrics.Aggregate
	for _, fig := range figs {
		aggs = append(aggs, fig.Aggregate)
		if base == nil {
			base = fig
			continue
		}
		for i := range base.Comparisons {
			base.Comparisons[i].ExitsDelta += fig.Comparisons[i].ExitsDelta
			base.Comparisons[i].TimerExitsDelta += fig.Comparisons[i].TimerExitsDelta
			base.Comparisons[i].ThroughputDelta += fig.Comparisons[i].ThroughputDelta
			base.Comparisons[i].RuntimeDelta += fig.Comparisons[i].RuntimeDelta
		}
	}
	for i := range base.Comparisons {
		base.Comparisons[i].ExitsDelta /= float64(n)
		base.Comparisons[i].TimerExitsDelta /= float64(n)
		base.Comparisons[i].ThroughputDelta /= float64(n)
		base.Comparisons[i].RuntimeDelta /= float64(n)
	}
	base.Aggregate = metrics.Aggregated(base.Comparisons)
	base.Spread = metrics.SpreadOf(aggs)
	return base, nil
}

// Render prints the figure as three ASCII bar-chart panels (a/b/c), the
// paper's presentation.
func (f *ParsecFigure) Render() string {
	var b strings.Builder
	exits := metrics.NewBarChart(f.Title + " — (a) relative VM exits")
	thr := metrics.NewBarChart(f.Title + " — (b) relative system throughput")
	rt := metrics.NewBarChart(f.Title + " — (c) relative execution time")
	for _, c := range f.Comparisons {
		exits.Add(c.Name, c.ExitsDelta)
		thr.Add(c.Name, c.ThroughputDelta)
		rt.Add(c.Name, c.RuntimeDelta)
	}
	b.WriteString(exits.String())
	b.WriteString("\n")
	b.WriteString(thr.String())
	b.WriteString("\n")
	b.WriteString(rt.String())
	fmt.Fprintf(&b, "\naggregate (n=%d): VM exits %s, throughput %s, execution time %s\n",
		f.Aggregate.N, metrics.Pct(f.Aggregate.ExitsDelta),
		metrics.Pct(f.Aggregate.ThroughputDelta), metrics.Pct(f.Aggregate.RuntimeDelta))
	if f.Spread != nil {
		fmt.Fprintf(&b, "repeat spread: %s\n", f.Spread.String())
	}
	for _, t := range f.LatencyTables() {
		b.WriteString("\n")
		b.WriteString(t.String())
	}
	return b.String()
}

// LatencyTables renders the exit-handling-cost distributions (p50/p95/p99/
// max per exit reason) merged across all benchmarks in the figure, one table
// per tick mode. With Repeats > 1 the distributions come from the first
// repeat's seed (deltas are averaged, raw counters are not).
func (f *ParsecFigure) LatencyTables() []*metrics.Table {
	var base, opt metrics.Counters
	for _, c := range f.Comparisons {
		base.Add(&c.Baseline.Counters)
		opt.Add(&c.Optimized.Counters)
	}
	var out []*metrics.Table
	if t := metrics.ExitLatencyTable("exit handling cost (dynticks baseline)", &base); t != nil {
		out = append(out, t)
	}
	if t := metrics.ExitLatencyTable("exit handling cost (paratick)", &opt); t != nil {
		out = append(out, t)
	}
	return out
}

// Table renders the figure's data as a table (and CSV source).
func (f *ParsecFigure) Table() *metrics.Table {
	t := metrics.NewTable(f.Title,
		"benchmark", "exits", "timer-exits", "throughput", "exec-time")
	for _, c := range f.Comparisons {
		t.AddRow(c.Name, metrics.Pct1(c.ExitsDelta), metrics.Pct1(c.TimerExitsDelta),
			metrics.Pct1(c.ThroughputDelta), metrics.Pct1(c.RuntimeDelta))
	}
	t.AddRow("MEAN", metrics.Pct1(f.Aggregate.ExitsDelta), metrics.Pct1(f.Aggregate.TimerExitsDelta),
		metrics.Pct1(f.Aggregate.ThroughputDelta), metrics.Pct1(f.Aggregate.RuntimeDelta))
	return t
}

// RenderTable2 renders Table 2 from Fig. 4 data.
func RenderTable2(fig *ParsecFigure) *metrics.Table {
	t := metrics.NewTable("Table 2: average improvement, sequential PARSEC",
		"VM exits", "System throughput", "Execution time")
	t.AddRow(metrics.Pct(fig.Aggregate.ExitsDelta),
		metrics.Pct(fig.Aggregate.ThroughputDelta),
		metrics.Pct(fig.Aggregate.RuntimeDelta))
	return t
}

// RenderTable3 renders Table 3 from the three Fig. 5 panels.
func RenderTable3(figs []*ParsecFigure) *metrics.Table {
	t := metrics.NewTable("Table 3: average improvement, multithreaded PARSEC",
		"VM size", "VM exits", "System throughput", "Execution time")
	sizes := VMSizes()
	for i, f := range figs {
		name := fmt.Sprintf("panel-%d", i)
		if i < len(sizes) {
			name = sizes[i].Name
		}
		t.AddRow(name, metrics.Pct(f.Aggregate.ExitsDelta),
			metrics.Pct(f.Aggregate.ThroughputDelta),
			metrics.Pct(f.Aggregate.RuntimeDelta))
	}
	return t
}
