package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// The shard-fleet scenario: the canonical lane-mode workload. A fleet of
// socket-contained VMs spread round-robin across the paper topology's four
// sockets, each running the fio workload, coupled by a ring of cross-VM
// doorbell IPI streams (every VM kicks its successor, which lives on the
// next socket). It is the scenario the sharded-determinism CI gate, the
// differential tests, and the sharded perf kernel all run: every socket is
// busy, every barrier drains messages, and the report is a pure function
// of (seed, quantum) — never of the shard count.

// shardFleetVCPUs is each fleet VM's vCPU count.
const shardFleetVCPUs = 2

// shardFleetQuantum is the default barrier quantum when opts.Quantum is 0:
// a quarter of the 250 Hz guest tick period, fine enough that cross-socket
// IPI latency stays realistic, coarse enough that barriers stay cheap.
const shardFleetQuantum = sim.Millisecond

// ShardFleetScenario builds the fleet: vms socket-contained VMs (alternating
// paratick/dynticks modes), each spawning the fio workload, linked in a
// cross-socket IPI ring. The scenario runs in lane mode with opts.Quantum
// (default shardFleetQuantum) and opts.Shards.
func ShardFleetScenario(opts Options, vms int) (Scenario, error) {
	if vms < 2 {
		return Scenario{}, fmt.Errorf("experiment shardfleet: need at least 2 VMs, got %d", vms)
	}
	if opts.Quantum == 0 {
		opts.Quantum = shardFleetQuantum
	}
	topo := hw.PaperTopology()
	s := opts.scenario(Scenario{Name: "shardfleet", Topology: topo})
	for i := 0; i < vms; i++ {
		socket := i % topo.Sockets
		cpus := topo.CPUsOnSocket(socket)
		placement := make([]hw.CPUID, shardFleetVCPUs)
		for j := range placement {
			placement[j] = cpus[(shardFleetVCPUs*(i/topo.Sockets)+j)%len(cpus)]
		}
		mode := core.Paratick
		if i%2 == 1 {
			mode = core.DynticksIdle
		}
		s.VMs = append(s.VMs, VMSpec{
			Name:      fmt.Sprintf("vm%02d", i),
			Mode:      mode,
			Placement: placement,
			Workload:  true,
			Setup:     fioSetup(opts),
		})
	}
	// The IPI ring: VM i kicks VM i+1, which lives on the next socket —
	// every stream crosses lanes. Latency is twice the quantum: the minimum
	// conservative horizon plus one quantum of modeled wire time.
	for i := 0; i < vms; i++ {
		s.CrossIPI = append(s.CrossIPI, CrossIPISpec{
			Src: i, Dst: (i + 1) % vms, DstVCPU: i % shardFleetVCPUs,
			Period:  250 * sim.Microsecond,
			Latency: 2 * opts.Quantum,
		})
	}
	return s, nil
}

// ShardFleetResult is the fleet report: per-VM counters plus run totals.
type ShardFleetResult struct {
	VMs     int
	Quantum sim.Time
	Results []metrics.Result
	Events  uint64
}

// RunShardFleet runs the fleet scenario with opts.Seed and returns the
// per-VM report. The output depends on (seed, scale, quantum) only — runs
// with different shard counts are byte-identical, which is what the CI
// sharded-determinism gate diffs.
func RunShardFleet(opts Options, vms int) (*ShardFleetResult, error) {
	if opts.Quantum == 0 {
		opts.Quantum = shardFleetQuantum
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s, err := ShardFleetScenario(opts, vms)
	if err != nil {
		return nil, err
	}
	sr := &ScenarioResult{}
	if err := runScenarioInto(s, opts.Seed, opts.Meter, nil, sr); err != nil {
		return nil, err
	}
	return &ShardFleetResult{
		VMs:     vms,
		Quantum: s.Quantum,
		Results: sr.Results,
		Events:  sr.Events,
	}, nil
}

// Render prints the per-VM table: exits, ticks, injected IPIs, wall time.
func (r *ShardFleetResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shard fleet: %d socket-contained VMs, quantum %v, %d events\n\n",
		r.VMs, r.Quantum, r.Events)
	t := metrics.NewTable("",
		"vm", "mode", "exits", "timer-exits", "virtual-ticks", "wall")
	for _, res := range r.Results {
		t.AddRow(res.Name, res.Mode,
			fmt.Sprintf("%d", res.Counters.TotalExits()),
			fmt.Sprintf("%d", res.Counters.TimerExits()),
			fmt.Sprintf("%d", res.Counters.VirtualTicks),
			res.WallTime.String())
	}
	b.WriteString(t.String())
	return b.String()
}
