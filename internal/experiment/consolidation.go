package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/workload"
)

// ConsolidationRow is one tick mode's system-wide outcome on the mixed
// fleet.
type ConsolidationRow struct {
	Mode       core.Mode
	TotalExits uint64
	TimerExits uint64
	// HostOverhead is hypervisor time burned fleet-wide.
	HostOverhead sim.Time
	// BusyCycles is fleet-wide CPU consumption for the same delivered work.
	BusyCycles sim.Time
	// IOBytes is the I/O VM's delivered bytes (its throughput proxy).
	IOBytes uint64
	// Wakeups counts fleet-wide task wakeups (sanity: equal work across
	// modes).
	Wakeups uint64
}

// ConsolidationResult compares the three tick modes on the §3.1
// consolidation scenario: one host running a mixed fleet — idle VMs (the
// common case the paper says is "not rare"), a blocking-sync VM, and an
// I/O VM — with vCPUs overcommitted 2:1 onto the host's cores.
type ConsolidationResult struct {
	Duration sim.Time
	Rows     []ConsolidationRow
}

// wrapPlace pins vcpus one per pCPU starting at base, wrapping around the
// 16-CPU consolidation host so placements overcommit 2:1.
func wrapPlace(vcpus, base int) []hw.CPUID {
	out := make([]hw.CPUID, vcpus)
	for i := range out {
		out[i] = hw.CPUID((base + i) % 16)
	}
	return out
}

// consolidationScenario declares the §3.1 fleet: 32 vCPUs over 16 pCPUs —
// four idle 4-vCPU VMs, one 8-vCPU blocking-sync VM, one 4-vCPU I/O VM, one
// 4-vCPU compute VM — all under one tick mode.
func consolidationScenario(opts Options, mode core.Mode, dur sim.Time) Scenario {
	s := opts.scenario(Scenario{
		Name:     "consolidation/" + mode.String(),
		Topology: hw.SmallTopology(), // 16 pCPUs
		Duration: dur,
	})
	for i := 0; i < 4; i++ {
		s.VMs = append(s.VMs, VMSpec{
			Name: fmt.Sprintf("idle%d", i), Mode: mode, Placement: wrapPlace(4, i*4),
		})
	}
	bench := workload.DefaultSyncBench()
	bench.Threads = 8
	bench.SyncsPerSec = 2000
	bench.Duration = dur
	s.VMs = append(s.VMs, VMSpec{
		Name: "sync", Mode: mode, Placement: wrapPlace(8, 0),
		Setup: func(vm *kvm.VM) error { return bench.Spawn(vm.Kernel()) },
	})
	job := workload.DefaultFioJob(workload.RandRead, 4096, int64(float64(16<<20)*opts.Scale))
	s.VMs = append(s.VMs, VMSpec{
		Name: "io", Mode: mode, Placement: wrapPlace(4, 8),
		Setup: func(vm *kvm.VM) error {
			dev, err := vm.AttachDevice("disk0", opts.Device)
			if err != nil {
				return err
			}
			return job.Spawn(vm.Kernel(), dev)
		},
	})
	s.VMs = append(s.VMs, VMSpec{
		Name: "compute", Mode: mode, Placement: wrapPlace(4, 12),
		Setup: func(vm *kvm.VM) error {
			for i := 0; i < 4; i++ {
				vm.Kernel().Spawn(fmt.Sprintf("c%d", i), i,
					guest.Steps(guest.Compute(dur/4)))
			}
			return nil
		},
	})
	return s
}

// RunConsolidation simulates the fleet for 1 s × scale under each mode and
// reports system-wide costs.
func RunConsolidation(opts Options) (*ConsolidationResult, error) {
	dur := sim.Time(float64(sim.Second) * opts.Scale)
	if dur < 100*sim.Millisecond {
		dur = 100 * sim.Millisecond
	}
	res := &ConsolidationResult{Duration: dur}
	modes := []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick}
	runs := make([]run, len(modes))
	res.Rows = make([]ConsolidationRow, len(modes))
	for i, mode := range modes {
		runs[i] = run{s: consolidationScenario(opts, mode, dur), seed: opts.Seed}
		res.Rows[i].Mode = mode
	}
	if _, err := runAll(opts, runs, func(k int, r *ScenarioResult) {
		row := &res.Rows[k]
		for i := range r.Results {
			c := &r.Results[i].Counters
			row.TotalExits += c.TotalExits()
			row.TimerExits += c.TimerExits()
			row.HostOverhead += c.HostOverhead
			row.BusyCycles += c.BusyCycles()
			row.IOBytes += c.IOBytes()
			row.Wakeups += c.Wakeups
		}
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the fleet comparison.
func (r *ConsolidationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Consolidation (§3.1): mixed fleet, 32 vCPUs on 16 pCPUs, %v\n\n", r.Duration)
	t := metrics.NewTable("",
		"mode", "total-exits", "timer-exits", "host-overhead", "busy-cycles", "io-bytes")
	for _, row := range r.Rows {
		t.AddRow(row.Mode.String(),
			fmt.Sprintf("%d", row.TotalExits),
			fmt.Sprintf("%d", row.TimerExits),
			row.HostOverhead.String(),
			row.BusyCycles.String(),
			fmt.Sprintf("%d", row.IOBytes))
	}
	b.WriteString(t.String())
	return b.String()
}
