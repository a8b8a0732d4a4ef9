package experiment

import (
	"fmt"
	"strings"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/workload"
)

// AblationResult compares design-choice variants on a fixed workload.
type AblationResult struct {
	Title string
	Rows  []AblationRow
	// Warmup accounts the events shared by warm-starting variant arms from
	// a forked checkpoint (zero when every variant ran from boot).
	Warmup WarmupStats
}

// AblationRow is one variant's measurement.
type AblationRow struct {
	Variant    string
	TimerExits uint64
	TotalExits uint64
	Runtime    sim.Time
	GuestTicks uint64
	BusyCycles sim.Time
}

func (r *AblationResult) add(variant string, res metrics.Result) {
	r.Rows = append(r.Rows, AblationRow{
		Variant:    variant,
		TimerExits: res.Counters.TimerExits(),
		TotalExits: res.Counters.TotalExits(),
		Runtime:    res.WallTime,
		GuestTicks: res.Counters.GuestTicks,
		BusyCycles: res.Counters.BusyCycles(),
	})
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	t := metrics.NewTable(r.Title,
		"variant", "timer-exits", "total-exits", "guest-ticks", "busy-cycles", "runtime")
	for _, row := range r.Rows {
		t.AddRow(row.Variant,
			fmt.Sprintf("%d", row.TimerExits),
			fmt.Sprintf("%d", row.TotalExits),
			fmt.Sprintf("%d", row.GuestTicks),
			row.BusyCycles.String(),
			row.Runtime.String())
	}
	out := t.String()
	if line := r.Warmup.String(); line != "" {
		out += line + "\n"
	}
	return out
}

// warmupInstant sizes a fork point for workload-completion runs: far enough
// in to amortize boot and cache warmup across the arms, scaled with the
// workload, but always well short of the earliest completion.
func warmupInstant(base sim.Time, scale float64, floor sim.Time) sim.Time {
	w := sim.Time(float64(base) * scale)
	if w < floor {
		w = floor
	}
	return w
}

// ablate runs the variant worlds through runAll and returns each result's
// one VM in runAll's result order, with the fork groups' warmup accounting.
func ablate(opts Options, runs ...run) ([]metrics.Result, WarmupStats, error) {
	n := 0
	for i := range runs {
		n += runs[i].results()
	}
	out := make([]metrics.Result, n)
	warm, err := runAll(opts, runs, func(k int, r *ScenarioResult) {
		out[k] = r.Results[0]
	})
	return out, warm, err
}

// fioSetup builds a random-read fio workload for ablation runs.
func fioSetup(opts Options) func(vm *kvm.VM) error {
	job := workload.DefaultFioJob(workload.RandRead, 4096, fioTotalBytes(4096, opts.Scale))
	return func(vm *kvm.VM) error {
		dev, err := vm.AttachDevice("disk0", opts.Device)
		if err != nil {
			return err
		}
		return job.Spawn(vm.Kernel(), dev)
	}
}

// timerAppProgram is an event-loop application: it sleeps on a timeout and
// does a burst of work on each expiry — the soft-timer-driven idle pattern
// whose wakeup-timer management §5.2.4/§5.2.5 optimize.
type timerAppProgram struct {
	iters int
	//snap:skip immutable program parameter from the scenario
	interval sim.Time
	//snap:skip immutable program parameter from the scenario
	work     sim.Time
	sleeping bool
}

func (p *timerAppProgram) Next(ctx *guest.StepCtx) guest.Step {
	if p.iters <= 0 {
		return guest.Done()
	}
	if !p.sleeping {
		p.sleeping = true
		return guest.Sleep(ctx.Rand.Jitter(p.interval, 0.2))
	}
	p.sleeping = false
	p.iters--
	return guest.Compute(ctx.Rand.Jitter(p.work, 0.2))
}

// RunIdleExitAblation evaluates the §5.2.5 heuristic ("do not disable the
// idle wakeup timer on idle exit"). The workload pairs a heartbeat task
// (periodic soft timer) with a sync-I/O loop on the same vCPU: every I/O
// block enters idle with the heartbeat pending, so a wakeup timer must be
// armed — and most wakes come from I/O completions, long before that timer
// fires. With the paper's heuristic the armed timer is simply reused across
// idle cycles (≈0 MSR writes per I/O); disarming on idle exit pays a stop
// plus a re-arm on every single cycle. The two paratick variants fork from
// one warmed checkpoint, differing only in the policy option.
func RunIdleExitAblation(opts Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: §5.2.5 keep-wakeup-timer-armed heuristic (heartbeat + fio rndr 4k)"}
	job := workload.DefaultFioJob(workload.RandRead, 4096, fioTotalBytes(4096, opts.Scale))
	// Size the heartbeat to tick for roughly the I/O loop's lifetime.
	heartbeat := 4 * sim.Millisecond
	iters := job.Ops() * 30 / int(heartbeat/sim.Microsecond)
	if iters < 10 {
		iters = 10
	}
	setup := func(vm *kvm.VM) error {
		dev, err := vm.AttachDevice("disk0", opts.Device)
		if err != nil {
			return err
		}
		if err := job.Spawn(vm.Kernel(), dev); err != nil {
			return err
		}
		vm.Kernel().Spawn("heartbeat", 0, &timerAppProgram{
			iters:    iters,
			interval: heartbeat,
			work:     50 * sim.Microsecond,
		})
		return nil
	}
	// The heartbeat alone keeps the run alive ≥ 10 beats ≈ 40 ms, so a
	// millisecond-class fork point is always mid-run.
	warm := warmupInstant(4*sim.Millisecond, opts.Scale, sim.Millisecond)
	// The dynticks baseline has no options to vary: a straight run. One
	// paratick world warms once and forks the keep/disarm arms.
	results, warmup, err := ablate(opts,
		run{s: opts.oneVM("ablation-idle-exit/dynticks", VMSpec{Mode: core.DynticksIdle, VCPUs: 1, Setup: setup}), seed: opts.Seed},
		run{
			s:    opts.oneVM("ablation-idle-exit/paratick", VMSpec{Mode: core.Paratick, VCPUs: 1, Setup: setup}),
			seed: opts.Seed,
			fork: warm,
			arms: []func(*world) error{
				nil, // keep armed: the group configuration as checkpointed
				func(w *world) error {
					return w.vms[0].Kernel().SetPolicyOptions(core.Options{DisarmOnIdleExit: true})
				},
			},
		})
	if err != nil {
		return nil, err
	}
	res.add("dynticks (baseline)", results[0])
	res.add("paratick (keep armed, paper)", results[1])
	res.add("paratick (disarm on idle exit)", results[2])
	res.Warmup = warmup
	return res, nil
}

// RunFrequencyMismatchAblation evaluates the §4.1 extension: a guest
// declaring 1000 Hz ticks on a 250 Hz host, with and without the
// preemption-timer top-up. The guest-tick count shows whether the guest
// actually receives its requested rate. Both variants fork from one warmed
// checkpoint; the top-up is a host-side entry hook swapped at the fork.
func RunFrequencyMismatchAblation(opts Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: §4.1 guest 1000 Hz on host 250 Hz (busy vCPU)"}
	work := sim.Time(float64(200*sim.Millisecond) * opts.Scale * 10)
	group := opts.oneVM("ablation-freq/paratick-1000hz", VMSpec{
		Mode:    core.Paratick,
		VCPUs:   1,
		GuestHz: 1000,
		Setup: func(vm *kvm.VM) error {
			vm.Kernel().Spawn("spin", 0, guest.Steps(guest.Compute(work)))
			return nil
		},
	})
	group.HostHz = 250
	arms := []func(*world) error{
		func(w *world) error {
			w.vms[0].SetEntryHook(&core.ParatickHost{})
			return nil
		},
		func(w *world) error {
			w.vms[0].SetEntryHook(&core.ParatickHost{TopUp: true})
			return nil
		},
	}
	// The busy spin runs for ~work; fork after an eighth of it.
	results, warmup, err := ablate(opts, run{s: group, seed: opts.Seed, fork: work / 8, arms: arms})
	if err != nil {
		return nil, err
	}
	res.add("paratick 1000Hz, no top-up", results[0])
	res.add("paratick 1000Hz, top-up", results[1])
	res.Warmup = warmup
	return res, nil
}

// RunHaltPollAblation shows why the paper disables halt polling (§6): it
// trades burned host cycles for wake latency on a blocking-sync workload.
// The windows are a host knob read at each HLT exit, so all three variants
// fork from one checkpoint warmed with polling disabled.
func RunHaltPollAblation(opts Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: KVM halt polling (fio rndr 4k, dynticks)"}
	windows := []sim.Time{0, 50 * sim.Microsecond, 200 * sim.Microsecond}
	group := opts.oneVM("ablation-haltpoll", VMSpec{Mode: core.DynticksIdle, VCPUs: 1, Setup: fioSetup(opts)})
	arms := make([]func(*world) error, len(windows))
	for i, hp := range windows {
		hp := hp
		arms[i] = func(w *world) error {
			return w.host.SetHaltPoll(hp)
		}
	}
	warm := warmupInstant(2*sim.Millisecond, opts.Scale, 100*sim.Microsecond)
	results, warmup, err := ablate(opts, run{s: group, seed: opts.Seed, fork: warm, arms: arms})
	if err != nil {
		return nil, err
	}
	for i, hp := range windows {
		name := "disabled (paper)"
		if hp > 0 {
			name = "window " + hp.String()
		}
		res.add(name, results[i])
	}
	res.Warmup = warmup
	return res, nil
}

// spinLockProgram loops: compute, then a contended critical section.
type spinLockProgram struct {
	//snap:skip shared-object wiring, re-bound when the program is rebuilt
	lock  *guest.Lock
	iters int
	phase int
}

func (p *spinLockProgram) Next(ctx *guest.StepCtx) guest.Step {
	switch p.phase {
	case 0:
		if p.iters <= 0 {
			return guest.Done()
		}
		p.iters--
		p.phase = 1
		return guest.Compute(ctx.Rand.Exp(60 * sim.Microsecond))
	case 1:
		p.phase = 2
		return guest.Acquire(p.lock)
	case 2:
		p.phase = 3
		return guest.Compute(ctx.Rand.Jitter(15*sim.Microsecond, 0.3))
	default:
		p.phase = 0
		return guest.Release(p.lock)
	}
}

// RunPLEAblation contrasts blocking synchronization with optimistic
// spinning, with and without pause-loop exiting — the §6 setup note
// ("we disabled pause loop exiting (PLE) because this optimization is only
// beneficial in overcommitted environments") made measurable. The spin
// window (guest) and PLE window (host) are both consulted per decision, so
// the three variants fork from one blocking-sync warmup.
func RunPLEAblation(opts Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: blocking sync vs optimistic spin vs spin+PLE (4 vCPUs, hot lock)"}
	iters := int(4000 * opts.Scale)
	if iters < 100 {
		iters = 100
	}
	group := opts.oneVM("ple", VMSpec{
		Mode:  core.DynticksIdle,
		VCPUs: 4,
		Setup: func(vm *kvm.VM) error {
			lock := vm.Kernel().NewLock("hot")
			for i := 0; i < 4; i++ {
				vm.Kernel().Spawn(fmt.Sprintf("t%d", i), i, &spinLockProgram{lock: lock, iters: iters})
			}
			return nil
		},
	})
	variants := []struct {
		name string
		spin sim.Time
		ple  sim.Time
	}{
		{"blocking (paper workloads)", 0, 0},
		{"spin 25us, PLE off (paper host)", 25 * sim.Microsecond, 0},
		{"spin 25us, PLE 10us window", 25 * sim.Microsecond, 10 * sim.Microsecond},
	}
	arms := make([]func(*world) error, len(variants))
	for i, v := range variants {
		v := v
		arms[i] = func(w *world) error {
			if err := w.vms[0].Kernel().SetAdaptiveSpin(v.spin); err != nil {
				return err
			}
			return w.host.SetPLEWindow(v.ple)
		}
	}
	// ≥100 iterations × ≥60us of compute per task keeps the run in the
	// multi-millisecond range; fork inside the first millisecond.
	warm := warmupInstant(5*sim.Millisecond, opts.Scale, 500*sim.Microsecond)
	results, warmup, err := ablate(opts, run{s: group, seed: opts.Seed, fork: warm, arms: arms})
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		res.add(v.name, results[i])
	}
	res.Warmup = warmup
	return res, nil
}

// RunCoalescingAblation measures interrupt moderation: batching device
// completions reduces injection/exit traffic for both tick mechanisms,
// shrinking (but not erasing) paratick's relative benefit — context for the
// paper's note that its test system lacks an SR-IOV device (§6.3). The
// workload issues bursts of write-behind I/O so completions can coalesce.
// One warmed group per mode; the coalescing window is a device profile
// retuned at the fork.
func RunCoalescingAblation(opts Options) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: device interrupt coalescing (fio seqwr 4k bursts)"}
	job := workload.DefaultFioJob(workload.SeqWrite, 4096, fioTotalBytes(4096, opts.Scale))
	job.WriteBehind = 8 // mostly async: bursts of in-flight writes
	windows := []sim.Time{0, 30 * sim.Microsecond}
	modes := []core.Mode{core.DynticksIdle, core.Paratick}
	warm := warmupInstant(sim.Millisecond, opts.Scale, 50*sim.Microsecond)
	runs := make([]run, len(modes))
	for mi, mode := range modes {
		base := opts.Device
		base.CoalesceWindow = windows[0]
		base.CoalesceMax = 8
		group := opts.oneVM(fmt.Sprintf("ablation-coalesce/%v", mode), VMSpec{
			Mode:  mode,
			VCPUs: 1,
			Setup: func(vm *kvm.VM) error {
				d, err := vm.AttachDevice("disk0", base)
				if err != nil {
					return err
				}
				return job.Spawn(vm.Kernel(), d)
			},
		})
		arms := make([]func(*world) error, len(windows))
		for i, coalesce := range windows {
			profile := opts.Device
			profile.CoalesceWindow = coalesce
			profile.CoalesceMax = 8
			arms[i] = func(w *world) error {
				return w.vms[0].Device("disk0").SetProfile(profile)
			}
		}
		runs[mi] = run{s: group, seed: opts.Seed, fork: warm, arms: arms}
	}
	// results is mode-major: each mode's arms in window order.
	results, warmup, err := ablate(opts, runs...)
	if err != nil {
		return nil, err
	}
	for i, coalesce := range windows {
		for j, mode := range modes {
			name := mode.String() + ", no coalescing"
			if coalesce > 0 {
				name = mode.String() + ", coalesce " + coalesce.String()
			}
			res.add(name, results[j*len(windows)+i])
		}
	}
	res.Warmup = warmup
	return res, nil
}

// RunAllAblations runs every ablation and concatenates the reports.
func RunAllAblations(opts Options) (string, error) {
	var b strings.Builder
	a1, err := RunIdleExitAblation(opts)
	if err != nil {
		return "", err
	}
	b.WriteString(a1.Render())
	b.WriteString("\n")
	a2, err := RunFrequencyMismatchAblation(opts)
	if err != nil {
		return "", err
	}
	b.WriteString(a2.Render())
	b.WriteString("\n")
	a3, err := RunHaltPollAblation(opts)
	if err != nil {
		return "", err
	}
	b.WriteString(a3.Render())
	b.WriteString("\n")
	a4, err := RunPLEAblation(opts)
	if err != nil {
		return "", err
	}
	b.WriteString(a4.Render())
	b.WriteString("\n")
	a5, err := RunCoalescingAblation(opts)
	if err != nil {
		return "", err
	}
	b.WriteString(a5.Render())
	return b.String(), nil
}
