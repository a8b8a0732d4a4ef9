package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/analytic"
	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/workload"
)

// Table1Row holds one §3.3 workload's timer-management VM exits: the
// analytic predictions (both conventions) plus the full-simulation
// measurement for every tick mode.
type Table1Row struct {
	Workload       string
	AnalyticPaper  analytic.Table1Row // printed-table convention
	AnalyticStrict analytic.Table1Row // literal §3.1/§3.2 formulas
	// Simulated timer-related VM exits per mode.
	SimPeriodic uint64
	SimTickless uint64
	SimParatick uint64
}

// Table1Result is the full experiment output.
type Table1Result struct {
	Duration sim.Time
	Rows     []Table1Row
}

// RunTable1 reproduces Table 1: the four hypothetical workloads W1–W4 on a
// 16-pCPU system, 16-vCPU VMs, 250 Hz, run both through the analytic
// model (§3) and the full simulator. The workloads run for
// 10 s × opts.Scale.
func RunTable1(opts Options) (*Table1Result, error) {
	dur := sim.Time(float64(analytic.Table1Duration) * opts.Scale)
	res := &Table1Result{Duration: dur}
	paper := analytic.Table1(analytic.PaperTable)
	strict := analytic.Table1(analytic.StrictFormula)

	workloads := []string{"W1", "W2", "W3", "W4"}
	modes := []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick}
	// One run per (workload, mode) cell, regrouped by index.
	var runs []run
	for _, w := range workloads {
		nVMs := 1
		if w == "W2" || w == "W4" {
			nVMs = 4
		}
		sync := w == "W3" || w == "W4"
		for _, mode := range modes {
			runs = append(runs, run{s: table1Scenario(opts, mode, nVMs, sync, dur), seed: opts.Seed})
		}
	}
	exits := make([]uint64, len(runs))
	if _, err := runAll(opts, runs, func(k int, r *ScenarioResult) {
		for i := range r.Results {
			exits[k] += r.Results[i].Counters.TimerExits()
		}
	}); err != nil {
		return nil, err
	}
	for i, w := range workloads {
		res.Rows = append(res.Rows, Table1Row{
			Workload:       w,
			AnalyticPaper:  paper[i],
			AnalyticStrict: strict[i],
			SimPeriodic:    exits[i*len(modes)],
			SimTickless:    exits[i*len(modes)+1],
			SimParatick:    exits[i*len(modes)+2],
		})
	}
	return res, nil
}

// table1Scenario declares nVMs 16-vCPU VMs (idle, or running the §3.3
// blocking-sync workload) for dur.
func table1Scenario(opts Options, mode core.Mode, nVMs int, sync bool, dur sim.Time) Scenario {
	// All VMs span the 16 pCPUs (vCPU i on pCPU i) — the overcommitted
	// consolidation scenario of §3.1.
	placement := make([]hw.CPUID, 16)
	for i := range placement {
		placement[i] = hw.CPUID(i)
	}
	s := opts.scenario(Scenario{
		Name:     fmt.Sprintf("table1/%s", mode),
		Topology: hw.SmallTopology(), // the §3.3 16-pCPU system
		Duration: dur,
	})
	for n := 0; n < nVMs; n++ {
		vs := VMSpec{Name: fmt.Sprintf("vm%d", n), Mode: mode, Placement: placement}
		if sync {
			vs.TaskHint = workload.DefaultSyncBench().Threads
			vs.Setup = func(vm *kvm.VM) error {
				bench := workload.DefaultSyncBench()
				bench.Duration = dur
				return bench.Spawn(vm.Kernel())
			}
		}
		s.VMs = append(s.VMs, vs)
	}
	return s
}

// Render prints Table 1 with analytic and simulated columns. Simulated
// counts are normalized to the paper's 10-second duration when a smaller
// scale was used.
func (r *Table1Result) Render() string {
	norm := float64(analytic.Table1Duration) / float64(r.Duration)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: timer-management VM exits, %v simulated (normalized to 10s)\n\n", r.Duration)
	t := metrics.NewTable("",
		"workload", "mechanism", "paper-printed", "strict-formula", "simulated")
	for _, row := range r.Rows {
		f := func(v float64) string { return fmt.Sprintf("%.0f", v) }
		s := func(v uint64) string { return fmt.Sprintf("%.0f", float64(v)*norm) }
		t.AddRow(row.Workload, "periodic", f(row.AnalyticPaper.Periodic), f(row.AnalyticStrict.Periodic), s(row.SimPeriodic))
		t.AddRow(row.Workload, "tickless", f(row.AnalyticPaper.Tickless), f(row.AnalyticStrict.Tickless), s(row.SimTickless))
		t.AddRow(row.Workload, "paratick", f(row.AnalyticPaper.Paratick), f(row.AnalyticStrict.Paratick), s(row.SimParatick))
	}
	b.WriteString(t.String())
	return b.String()
}
