package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/workload"
)

// FioCell is one (pattern, block size) measurement pair of Fig. 6.
type FioCell struct {
	Pattern   workload.FioPattern
	BlockSize int
	// Baseline and Paratick carry the raw results; IOThroughputDelta is
	// the relative change in direct I/O throughput, the paper's fig. 6b
	// metric ("I/O throughput equates to system throughput for this use
	// case").
	Baseline          metrics.Result
	Paratick          metrics.Result
	ExitsDelta        float64
	TimerExitsDelta   float64
	IOThroughputDelta float64
	RuntimeDelta      float64
}

// FioCategory aggregates one pattern across the 4k–256k block sizes, as the
// paper's per-category bars do.
type FioCategory struct {
	Pattern           workload.FioPattern
	Cells             []FioCell
	ExitsDelta        float64
	TimerExitsDelta   float64
	IOThroughputDelta float64
	RuntimeDelta      float64
}

// FioFigure is the full Fig. 6 + Table 4 dataset.
type FioFigure struct {
	Title      string
	Categories []FioCategory
	// Aggregates across all categories (Table 4).
	ExitsDelta        float64
	IOThroughputDelta float64
	RuntimeDelta      float64
}

// fioTotalBytes sizes the dataset so each run performs a few thousand ops
// at full scale.
func fioTotalBytes(blockSize int, scale float64) int64 {
	total := int64(float64(64<<20) * scale)
	if total < int64(blockSize)*16 {
		total = int64(blockSize) * 16
	}
	return total
}

// RunFig6 reproduces Fig. 6 + Table 4: fio's four access patterns over the
// block-size sweep, sync engine, 1-vCPU VM.
func RunFig6(opts Options) (*FioFigure, error) {
	fig := &FioFigure{Title: fmt.Sprintf("Figure 6: fio on %s (1 vCPU)", opts.Device.Name)}
	patterns := []workload.FioPattern{
		workload.SeqRead, workload.SeqWrite, workload.RandRead, workload.RandWrite,
	}
	sizes := workload.FioBlockSizes()
	// One compared pair per (pattern, block size) cell; cells are regrouped
	// by index, keeping category order identical to the serial nested loops.
	cells := make([]FioCell, len(patterns)*len(sizes))
	var runs []run
	for i := range cells {
		pat, bs := patterns[i/len(sizes)], sizes[i%len(sizes)]
		cells[i] = FioCell{Pattern: pat, BlockSize: bs}
		job := workload.DefaultFioJob(pat, bs, fioTotalBytes(bs, opts.Scale))
		runs = opts.compared(runs, fmt.Sprintf("fio/%s/%dk", pat, bs/1024), VMSpec{
			VCPUs: 1,
			Setup: func(vm *kvm.VM) error {
				dev, err := vm.AttachDevice("disk0", opts.Device)
				if err != nil {
					return err
				}
				return job.Spawn(vm.Kernel(), dev)
			},
		}, opts.Seed)
	}
	if _, err := runAll(opts, runs, func(k int, r *ScenarioResult) {
		if k%2 == 0 {
			cells[k/2].Baseline = r.Results[0]
		} else {
			cells[k/2].Paratick = r.Results[0]
		}
	}); err != nil {
		return nil, err
	}
	for i := range cells {
		c := &cells[i]
		cmp := metrics.Compare(c.Baseline, c.Paratick)
		c.ExitsDelta, c.TimerExitsDelta, c.RuntimeDelta = cmp.ExitsDelta, cmp.TimerExitsDelta, cmp.RuntimeDelta
		if bt := c.Baseline.IOThroughputMBps(); bt > 0 {
			c.IOThroughputDelta = c.Paratick.IOThroughputMBps()/bt - 1
		}
	}
	for pi, pat := range patterns {
		cat := FioCategory{Pattern: pat, Cells: cells[pi*len(sizes) : (pi+1)*len(sizes)]}
		n := float64(len(cat.Cells))
		for _, c := range cat.Cells {
			cat.ExitsDelta += c.ExitsDelta / n
			cat.TimerExitsDelta += c.TimerExitsDelta / n
			cat.IOThroughputDelta += c.IOThroughputDelta / n
			cat.RuntimeDelta += c.RuntimeDelta / n
		}
		fig.Categories = append(fig.Categories, cat)
	}
	n := float64(len(fig.Categories))
	for _, c := range fig.Categories {
		fig.ExitsDelta += c.ExitsDelta / n
		fig.IOThroughputDelta += c.IOThroughputDelta / n
		fig.RuntimeDelta += c.RuntimeDelta / n
	}
	return fig, nil
}

// Render prints Fig. 6 as the paper's three panels.
func (f *FioFigure) Render() string {
	var b strings.Builder
	exits := metrics.NewBarChart(f.Title + " — (a) relative VM exits")
	thr := metrics.NewBarChart(f.Title + " — (b) relative I/O throughput")
	rt := metrics.NewBarChart(f.Title + " — (c) relative execution time")
	for _, c := range f.Categories {
		exits.Add(c.Pattern.String(), c.ExitsDelta)
		thr.Add(c.Pattern.String(), c.IOThroughputDelta)
		rt.Add(c.Pattern.String(), c.RuntimeDelta)
	}
	b.WriteString(exits.String())
	b.WriteString("\n")
	b.WriteString(thr.String())
	b.WriteString("\n")
	b.WriteString(rt.String())
	fmt.Fprintf(&b, "\naggregate: VM exits %s, I/O throughput %s, execution time %s\n",
		metrics.Pct(f.ExitsDelta), metrics.Pct(f.IOThroughputDelta), metrics.Pct(f.RuntimeDelta))
	return b.String()
}

// Table renders the per-cell data.
func (f *FioFigure) Table() *metrics.Table {
	t := metrics.NewTable(f.Title,
		"pattern", "block", "exits", "timer-exits", "io-throughput", "exec-time",
		"base-MB/s", "para-MB/s")
	for _, cat := range f.Categories {
		for _, c := range cat.Cells {
			t.AddRow(cat.Pattern.String(), fmt.Sprintf("%dk", c.BlockSize/1024),
				metrics.Pct1(c.ExitsDelta), metrics.Pct1(c.TimerExitsDelta),
				metrics.Pct1(c.IOThroughputDelta), metrics.Pct1(c.RuntimeDelta),
				fmt.Sprintf("%.1f", c.Baseline.IOThroughputMBps()),
				fmt.Sprintf("%.1f", c.Paratick.IOThroughputMBps()))
		}
		t.AddRow(cat.Pattern.String(), "MEAN",
			metrics.Pct1(cat.ExitsDelta), metrics.Pct1(cat.TimerExitsDelta),
			metrics.Pct1(cat.IOThroughputDelta), metrics.Pct1(cat.RuntimeDelta), "", "")
	}
	return t
}

// RenderTable4 renders Table 4.
func RenderTable4(f *FioFigure) *metrics.Table {
	t := metrics.NewTable("Table 4: average improvement, phoronix-fio",
		"VM exits", "System throughput", "Execution time")
	t.AddRow(metrics.Pct(f.ExitsDelta), metrics.Pct(f.IOThroughputDelta), metrics.Pct(f.RuntimeDelta))
	return t
}
