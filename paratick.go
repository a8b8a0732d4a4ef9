package paratick

import (
	"fmt"
	"time"

	"paratick/internal/core"
	"paratick/internal/experiment"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/trace"
)

// TickMode selects the guest's scheduler-tick management policy.
type TickMode int

const (
	// ModeDynticks is the standard tickless kernel ("dynticks idle"),
	// Linux's default and the paper's baseline. The zero value, so
	// Scenario{} compares sensibly.
	ModeDynticks TickMode = iota
	// ModePeriodic is the classic fixed-rate scheduler tick.
	ModePeriodic
	// ModeParatick is the paper's virtual-scheduler-tick mechanism.
	ModeParatick
)

// String names the mode.
func (m TickMode) String() string { return m.internal().String() }

func (m TickMode) internal() core.Mode {
	switch m {
	case ModePeriodic:
		return core.Periodic
	case ModeParatick:
		return core.Paratick
	default:
		return core.DynticksIdle
	}
}

// ParseTickMode parses "periodic", "dynticks"/"tickless", or "paratick".
func ParseTickMode(s string) (TickMode, error) {
	m, err := core.ParseMode(s)
	if err != nil {
		return 0, err
	}
	switch m {
	case core.Periodic:
		return ModePeriodic, nil
	case core.Paratick:
		return ModeParatick, nil
	default:
		return ModeDynticks, nil
	}
}

// SchedPolicy selects the host's vCPU scheduling policy.
type SchedPolicy int

const (
	// SchedFIFO is the legacy host scheduler: strict per-pCPU arrival
	// order with a fixed timeslice. The zero value, so existing scenarios
	// behave exactly as before.
	SchedFIFO SchedPolicy = iota
	// SchedFair is a CFS-like virtual-runtime policy with per-socket idle
	// work stealing; it bounds wakeup latency under overcommit.
	SchedFair
)

// String names the policy.
func (p SchedPolicy) String() string { return p.internal().String() }

func (p SchedPolicy) internal() sched.Kind {
	if p == SchedFair {
		return sched.Fair
	}
	return sched.FIFO
}

// ParseSchedPolicy parses "fifo" (or "") and "fair"/"cfs".
func ParseSchedPolicy(s string) (SchedPolicy, error) {
	k, err := sched.Parse(s)
	if err != nil {
		return 0, err
	}
	if k == sched.Fair {
		return SchedFair, nil
	}
	return SchedFIFO, nil
}

// Scenario describes one simulated virtual machine and its workload.
// The zero value of every field selects the paper's defaults.
type Scenario struct {
	// Name labels reports; defaults to the workload's name.
	Name string
	// Mode is the tick policy (default ModeDynticks).
	Mode TickMode
	// VCPUs is the VM size (default 1).
	VCPUs int
	// Sockets spreads the vCPUs over NUMA sockets (default 1). The host is
	// the paper's 4-socket × 20-CPU machine.
	Sockets int
	// Overcommit pins that many vCPUs onto each physical CPU (default 1,
	// no time sharing) — the consolidation scenario of §3.1.
	Overcommit int
	// Sched is the host vCPU scheduling policy (default SchedFIFO, the
	// legacy behaviour). Only matters when Overcommit > 1.
	Sched SchedPolicy
	// Timeslice overrides the host pCPU timeslice (default 6ms).
	Timeslice time.Duration
	// GuestHz / HostHz are the tick frequencies (default 250, the paper's),
	// at most 1000, Linux's largest CONFIG_HZ.
	GuestHz int
	HostHz  int
	// Seed fixes all randomness (default 1); equal seeds reproduce runs
	// bit for bit.
	Seed uint64
	// Duration bounds open-ended workloads (e.g. IdleWorkload). When zero,
	// the run ends at workload completion.
	Duration time.Duration
	// HaltPoll enables KVM-style halt polling (the paper disables it).
	HaltPoll time.Duration
	// PLEWindow enables pause-loop exiting with the given detection window
	// (the paper disables it).
	PLEWindow time.Duration
	// AdaptiveSpin makes contended guest locks spin this long before
	// blocking (0 = pure blocking synchronization, the paper's workloads).
	AdaptiveSpin time.Duration
	// DisarmOnIdleExit inverts the paper's §5.2.5 heuristic (ablation).
	DisarmOnIdleExit bool
	// TopUpTimer enables the §4.1 frequency-mismatch extension.
	TopUpTimer bool
	// TraceCapacity, when positive, records the last N exit/injection
	// events for Report.Trace.
	TraceCapacity int
	// Workload generates the guest's tasks. Required unless Duration > 0.
	Workload Workload
}

func (s Scenario) withDefaults() Scenario {
	if s.VCPUs == 0 {
		s.VCPUs = 1
	}
	if s.Sockets == 0 {
		s.Sockets = 1
	}
	if s.GuestHz == 0 {
		s.GuestHz = 250
	}
	if s.HostHz == 0 {
		s.HostHz = 250
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Overcommit == 0 {
		s.Overcommit = 1
	}
	if s.Name == "" && s.Workload != nil {
		s.Name = s.Workload.name()
	}
	if s.Name == "" {
		s.Name = "scenario"
	}
	return s
}

// Validate reports configuration errors without running anything: the
// scenario's own checks, then those of the experiment scenario Run executes.
func (s Scenario) Validate() error {
	_, err := s.withDefaults().experimentScenario(nil, &Builder{})
	return err
}

// experimentScenario translates the defaulted scenario into the validated
// one-VM experiment.Scenario that Run executes, with the tracer installed
// and the workload applied through b by the VM's Setup.
func (s Scenario) experimentScenario(tracer *trace.Buffer, b *Builder) (experiment.Scenario, error) {
	if s.VCPUs < 0 || s.Sockets < 0 || s.GuestHz < 0 || s.HostHz < 0 || s.Overcommit < 0 {
		return experiment.Scenario{}, fmt.Errorf("paratick: negative scenario parameter")
	}
	if s.Workload == nil && s.Duration == 0 {
		return experiment.Scenario{}, fmt.Errorf("paratick: scenario %q needs a Workload or a Duration", s.Name)
	}
	if s.HaltPoll < 0 || s.PLEWindow < 0 || s.AdaptiveSpin < 0 || s.Timeslice < 0 {
		return experiment.Scenario{}, fmt.Errorf("paratick: negative duration")
	}
	// With overcommit, groups of vCPUs share a physical CPU: vCPU i lands
	// on the pCPU of slot i/Overcommit.
	pcpus := (s.VCPUs + s.Overcommit - 1) / s.Overcommit
	spread, err := kvm.DefaultConfig().Topology.SpreadAcross(pcpus, s.Sockets)
	if err != nil {
		return experiment.Scenario{}, err
	}
	placement := make([]hw.CPUID, s.VCPUs)
	for i := range placement {
		placement[i] = spread[i/s.Overcommit]
	}
	es := experiment.Scenario{
		Name:        s.Name,
		HostHz:      s.HostHz,
		Timeslice:   sim.Time(s.Timeslice.Nanoseconds()),
		HaltPoll:    sim.Time(s.HaltPoll.Nanoseconds()),
		PLEWindow:   sim.Time(s.PLEWindow.Nanoseconds()),
		SchedPolicy: s.Sched.internal(),
		Duration:    sim.Time(s.Duration.Nanoseconds()),
		VMs: []experiment.VMSpec{{
			Name:         s.Name,
			Mode:         s.Mode.internal(),
			GuestHz:      s.GuestHz,
			PolicyOpts:   core.Options{DisarmOnIdleExit: s.DisarmOnIdleExit},
			AdaptiveSpin: sim.Time(s.AdaptiveSpin.Nanoseconds()),
			TopUp:        s.TopUpTimer,
			Placement:    placement,
			Workload:     s.Workload != nil,
			// Setup runs after NewVM and before Start, so the tracer is in
			// place before anything can record.
			Setup: func(vm *kvm.VM) error {
				vm.Host().SetTracer(tracer)
				if s.Workload == nil {
					return nil
				}
				b.vm = vm
				return s.Workload.apply(b)
			},
		}},
	}
	return es, es.Validate()
}

// Run simulates the scenario and returns its report. The scenario runs as
// a one-VM experiment.Scenario, through the same builder and completion
// rule as every paper experiment.
func Run(s Scenario) (*Report, error) {
	s = s.withDefaults()
	var tracer *trace.Buffer
	if s.TraceCapacity > 0 {
		tracer = trace.NewBuffer(s.TraceCapacity)
	}
	var b Builder
	es, err := s.experimentScenario(tracer, &b)
	if err != nil {
		return nil, err
	}
	sr, err := experiment.RunScenario(es, s.Seed)
	if err != nil {
		return nil, err
	}
	if b.invalid != nil {
		return nil, b.invalid
	}
	return newReport(s, sr.Results[0], tracer), nil
}

// CompareToBaseline runs the scenario twice — once under ModeDynticks (the
// paper's vanilla baseline) and once under the scenario's own mode
// (defaulting to ModeParatick when left as the baseline) — and returns the
// paper's three relative metrics.
func CompareToBaseline(s Scenario) (*Comparison, error) {
	optimized := s
	if optimized.Mode == ModeDynticks {
		optimized.Mode = ModeParatick
	}
	base := s
	base.Mode = ModeDynticks
	baseRep, err := Run(base)
	if err != nil {
		return nil, err
	}
	optRep, err := Run(optimized)
	if err != nil {
		return nil, err
	}
	return compareReports(baseRep, optRep), nil
}
