package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/iodev"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// CrossoverPoint is one idle-period sample of the §3.3 sweep: the
// timer-management VM exits each tick mechanism induces when a vCPU
// alternates short busy phases with idle periods of the given length.
type CrossoverPoint struct {
	IdlePeriod    sim.Time
	PeriodicExits uint64
	TicklessExits uint64
	ParatickExits uint64
}

// CrossoverResult is the full sweep plus the §3.3 analytic threshold
// ("tickless kernels are preferable as long as the average idle period is
// longer than the average vCPU tick period divided by the number of vCPUs
// sharing the same physical CPU") and the empirically observed crossover.
type CrossoverResult struct {
	Duration sim.Time
	Points   []CrossoverPoint
	// AnalyticThreshold is tick period / vCPUs-per-pCPU (here 1).
	AnalyticThreshold sim.Time
	// EmpiricalCrossover is the smallest swept idle period at which
	// tickless induces no more timer exits than periodic (sim.Forever when
	// tickless never wins in the sweep).
	EmpiricalCrossover sim.Time
	// Warmup accounts the events shared by warm-starting each mode's sweep
	// from one forked checkpoint.
	Warmup WarmupStats
}

// crossoverIdlePeriods returns the swept idle-period lengths, bracketing
// the 4ms analytic threshold at 250 Hz.
func crossoverIdlePeriods() []sim.Time {
	us := sim.Microsecond
	return []sim.Time{
		100 * us, 250 * us, 500 * us, 1000 * us,
		2000 * us, 4000 * us, 8000 * us, 16000 * us,
	}
}

// delayLineProfile builds a device whose every operation takes exactly the
// requested latency — a controllable idle-period generator.
func delayLineProfile(latency sim.Time) iodev.Profile {
	return iodev.Profile{
		Name:       "delay-line",
		ReadBase:   latency,
		WriteBase:  latency,
		PerKiB:     0,
		SeqFactor:  1,
		QueueDepth: 1,
		Jitter:     0.05,
	}
}

// idleCycleProgram alternates a short busy phase with a blocking wait of
// the controlled idle period.
type idleCycleProgram struct {
	//snap:skip device wiring, re-bound when the program is rebuilt
	dev *iodev.Device
	//snap:skip immutable program parameter from the scenario
	busy sim.Time
	//snap:skip fixed at construction from the scenario duration
	until sim.Time
	inIO  bool
}

func (p *idleCycleProgram) Next(ctx *guest.StepCtx) guest.Step {
	if ctx.Now >= p.until {
		return guest.Done()
	}
	if p.inIO {
		p.inIO = false
		return guest.Compute(ctx.Rand.Jitter(p.busy, 0.2))
	}
	p.inIO = true
	return guest.Read(p.dev, 4096, false)
}

// RunCrossover sweeps the idle period across the §3.3 threshold and
// measures each mechanism's timer exits over the run, reproducing the
// to-tick-or-not-to-tick crossover empirically.
func RunCrossover(opts Options) (*CrossoverResult, error) {
	dur := sim.Time(float64(2*sim.Second) * opts.Scale)
	if dur < 100*sim.Millisecond {
		dur = 100 * sim.Millisecond
	}
	res := &CrossoverResult{
		Duration:           dur,
		AnalyticThreshold:  sim.PeriodFromHz(250), // 1 vCPU per pCPU
		EmpiricalCrossover: sim.Forever,
	}
	const busy = 50 * sim.Microsecond
	idles := crossoverIdlePeriods()
	modes := []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick}
	// One warm-started group per mode: the scenario boots and idles once,
	// is checkpointed at warm, and every swept latency forks from that
	// checkpoint, retuning only the delay-line device. The warmup runs
	// under the longest swept latency so the guest mostly blocks — the
	// shared window then adds only a handful of ticks to each point instead
	// of flooding the tickless counts with short-idle exits.
	warmLatency := idles[len(idles)-1]
	arms := make([]func(*world) error, len(idles))
	for i, idle := range idles {
		profile := delayLineProfile(idle)
		arms[i] = func(w *world) error {
			return w.vms[0].Device("delay").SetProfile(profile)
		}
	}
	runs := make([]run, len(modes))
	for mi, mode := range modes {
		group := opts.oneVM(fmt.Sprintf("crossover/%v", mode), VMSpec{
			Mode:  mode,
			VCPUs: 1,
			Setup: func(vm *kvm.VM) error {
				dev, err := vm.AttachDevice("delay", delayLineProfile(warmLatency))
				if err != nil {
					return err
				}
				vm.Kernel().Spawn("cycle", 0, &idleCycleProgram{
					dev: dev, busy: busy, until: dur,
				})
				return nil
			},
		})
		group.Duration = dur
		runs[mi] = run{s: group, seed: opts.Seed, fork: dur / 8, arms: arms}
	}
	// exits is mode-major: the arms of each mode's group in idle order.
	exits := make([]uint64, len(modes)*len(idles))
	warmup, err := runAll(opts, runs, func(k int, r *ScenarioResult) {
		exits[k] = r.Results[0].Counters.TimerExits()
	})
	if err != nil {
		return nil, err
	}
	res.Warmup = warmup
	for i, idle := range idles {
		pt := CrossoverPoint{
			IdlePeriod:    idle,
			PeriodicExits: exits[i],
			TicklessExits: exits[len(idles)+i],
			ParatickExits: exits[2*len(idles)+i],
		}
		res.Points = append(res.Points, pt)
		if res.EmpiricalCrossover == sim.Forever && pt.TicklessExits <= pt.PeriodicExits {
			res.EmpiricalCrossover = idle
		}
	}
	return res, nil
}

// Render prints the sweep with per-point winners and the threshold check.
func (r *CrossoverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§3.3 crossover sweep (%v per point, busy bursts of 50us)\n\n", r.Duration)
	t := metrics.NewTable("",
		"idle-period", "periodic", "tickless", "paratick", "winner (non-paratick)")
	for _, p := range r.Points {
		winner := "tickless"
		if p.TicklessExits > p.PeriodicExits {
			winner = "periodic"
		}
		t.AddRow(p.IdlePeriod.String(),
			fmt.Sprintf("%d", p.PeriodicExits),
			fmt.Sprintf("%d", p.TicklessExits),
			fmt.Sprintf("%d", p.ParatickExits),
			winner)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nanalytic threshold (§3.3): tickless preferable for idle periods > %v\n",
		r.AnalyticThreshold)
	if r.EmpiricalCrossover == sim.Forever {
		b.WriteString("empirical crossover: not reached within the sweep\n")
	} else {
		fmt.Fprintf(&b, "empirical crossover: tickless wins from %v\n", r.EmpiricalCrossover)
	}
	if line := r.Warmup.String(); line != "" {
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// Table renders the sweep for CSV export.
func (r *CrossoverResult) Table() *metrics.Table {
	t := metrics.NewTable("crossover sweep",
		"idle-period-us", "periodic", "tickless", "paratick")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.IdlePeriod.Microseconds()),
			fmt.Sprintf("%d", p.PeriodicExits),
			fmt.Sprintf("%d", p.TicklessExits),
			fmt.Sprintf("%d", p.ParatickExits))
	}
	return t
}
