package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/workload"
)

// overcommitPCPUs is the sweep host: 2 sockets × 4 CPUs. Small enough that
// the 16-cell sweep stays fast, two sockets so sched.Fair's same-socket
// work stealing is exercised.
const overcommitPCPUs = 8

// OvercommitCell is one (ratio, mode, policy) measurement: the latency-
// sensitive sync VM's wakeup-injection latency while (ratio-1) spinning
// antagonist VMs contend for every pCPU.
type OvercommitCell struct {
	Ratio  int
	Mode   core.Mode
	Policy sched.Kind
	// Inject is the sync VM's reschedule-IPI pend-to-delivery latency: how
	// long a woken vCPU's interrupt waits for that vCPU to reach a pCPU.
	Inject metrics.Histogram
	// SyncCounters is the sync VM's full counter set (detail tables).
	SyncCounters metrics.Counters
}

// OvercommitResult is the §3.1-style overcommit sweep: vCPU:pCPU ratios
// 1:1→4:1 under both host scheduling policies and both tick mechanisms.
type OvercommitResult struct {
	Duration sim.Time
	Ratios   []int
	Modes    []core.Mode
	Policies []sched.Kind
	// Cells is ratio-major, then mode, then policy.
	Cells []OvercommitCell
}

// Cell returns the measurement for (ratio, mode, policy); nil when absent.
func (r *OvercommitResult) Cell(ratio int, mode core.Mode, policy sched.Kind) *OvercommitCell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Ratio == ratio && c.Mode == mode && c.Policy == policy {
			return c
		}
	}
	return nil
}

// overcommitScenario declares one cell's fleet: a sync VM with one vCPU per
// pCPU (created first, so its vCPUs win scheduler tie-breaks the way
// latency-sensitive tasks win wakeup preemption on real hosts), plus
// (ratio-1) antagonist VMs whose vCPUs spin for the whole run.
func overcommitScenario(opts Options, ratio int, mode core.Mode, policy sched.Kind, dur sim.Time) Scenario {
	pin := func() []hw.CPUID {
		out := make([]hw.CPUID, overcommitPCPUs)
		for i := range out {
			out[i] = hw.CPUID(i)
		}
		return out
	}
	s := opts.scenario(Scenario{
		Name:     fmt.Sprintf("overcommit/%d:1/%s/%s", ratio, mode, policy),
		Topology: hw.Topology{Sockets: 2, CPUsPerSocket: 4, CrossSocketTax: 1.35},
		Duration: dur,
	})
	// The sweep compares policies, so each cell overrides the stamped one.
	s.SchedPolicy = policy
	bench := workload.DefaultSyncBench()
	bench.Threads = overcommitPCPUs
	bench.SyncsPerSec = 4000
	bench.Duration = dur
	s.VMs = append(s.VMs, VMSpec{
		Name: "sync", Mode: mode, Placement: pin(),
		Setup: func(vm *kvm.VM) error { return bench.Spawn(vm.Kernel()) },
	})
	for a := 1; a < ratio; a++ {
		s.VMs = append(s.VMs, VMSpec{
			Name: fmt.Sprintf("spin%d", a), Mode: mode, Placement: pin(),
			Setup: func(vm *kvm.VM) error {
				for i := 0; i < overcommitPCPUs; i++ {
					vm.Kernel().Spawn(fmt.Sprintf("hog%d", i), i,
						guest.Steps(guest.Compute(2*dur)))
				}
				return nil
			},
		})
	}
	return s
}

// RunOvercommit sweeps vCPU:pCPU ratios 1:1→4:1 for each tick mode × host
// scheduling policy and reports the sync VM's injection-latency quantiles.
// At 1:1 the policies coincide (empty queues); from 2:1 up, FIFO makes a
// woken vCPU wait behind full fixed timeslices of spinning antagonists,
// while Fair's depth-scaled timeslice and least-vruntime pick bound the
// wait — the motivation for making the host scheduler pluggable.
func RunOvercommit(opts Options) (*OvercommitResult, error) {
	dur := sim.Time(float64(sim.Second) * opts.Scale)
	if dur < 100*sim.Millisecond {
		dur = 100 * sim.Millisecond
	}
	res := &OvercommitResult{
		Duration: dur,
		Ratios:   []int{1, 2, 3, 4},
		Modes:    []core.Mode{core.DynticksIdle, core.Paratick},
		Policies: []sched.Kind{sched.FIFO, sched.Fair},
	}
	var runs []run
	for _, ratio := range res.Ratios {
		for _, mode := range res.Modes {
			for _, policy := range res.Policies {
				res.Cells = append(res.Cells, OvercommitCell{Ratio: ratio, Mode: mode, Policy: policy})
				runs = append(runs, run{s: overcommitScenario(opts, ratio, mode, policy, dur), seed: opts.Seed})
			}
		}
	}
	if _, err := runAll(opts, runs, func(k int, r *ScenarioResult) {
		sync := &r.Results[0].Counters
		res.Cells[k].Inject = sync.InjectLatency[metrics.VecReschedule]
		res.Cells[k].SyncCounters = *sync
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the sweep as one row per cell (also the CSV layout).
func (r *OvercommitResult) Table() *metrics.Table {
	t := metrics.NewTable("",
		"ratio", "mode", "sched", "wakeups", "p50", "p95", "p99", "max")
	for i := range r.Cells {
		c := &r.Cells[i]
		h := &c.Inject
		t.AddRow(fmt.Sprintf("%d:1", c.Ratio), c.Mode.String(), c.Policy.String(),
			fmt.Sprintf("%d", h.Count()),
			h.P50().String(), h.P95().String(), h.P99().String(), h.Max().String())
	}
	return t
}

// Render prints the sweep plus full per-vector detail at the deepest ratio.
func (r *OvercommitResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overcommit sweep: sync VM wakeup injection latency, %d pCPUs, %v\n",
		overcommitPCPUs, r.Duration)
	fmt.Fprintf(&b, "(resched-IPI pend-to-delivery; %d:1 adds spinning antagonist VMs)\n\n",
		r.Ratios[len(r.Ratios)-1])
	b.WriteString(r.Table().String())
	deepest := r.Ratios[len(r.Ratios)-1]
	for _, mode := range r.Modes {
		for _, policy := range r.Policies {
			c := r.Cell(deepest, mode, policy)
			if c == nil {
				continue
			}
			title := fmt.Sprintf("injection latency at %d:1 [%s, sched=%s]", deepest, mode, policy)
			if t := metrics.InjectLatencyTable(title, &c.SyncCounters); t != nil {
				b.WriteString("\n")
				b.WriteString(t.String())
			}
		}
	}
	return b.String()
}
