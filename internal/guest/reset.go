package guest

// Reset paths. Each pooled type in this package has one reset that writes
// its per-run state, and its constructor builds a shell of construction
// identity and then calls it. A kernel recycled by a pooled VM
// (kvm.VMArena) and a freshly built one therefore take the same path and
// stay byte-identical under the snapshot digest audit:
//
//   - RNG lockstep holds by construction: Kernel.Reset forks the engine
//     stream (tag 0x6e57) and Spawn forks the kernel stream once per task,
//     each via ForkInto, whether the Rand object is new or recycled.
//   - Construction identity survives, per-run state does not: registry ids,
//     names, pre-bound closures (task callbacks), slice capacities and the
//     retired tasks' programs (reused zeroed, by NewProgram) are kept;
//     every other field is written by the reset.
//   - The vCPU count is construction identity: the VM arena only recycles a
//     kernel onto a world with the same number of vCPUs.
//   - Attached devices are pooled like sync objects: Reset swaps them into
//     the device pool and the hypervisor's AttachDevice resets the one at
//     the next attach index (iodev.Device.Reset forks the device stream at
//     the draw point iodev.New uses). A kernel belongs to one VM for life,
//     so a pooled device keeps the interrupt hook that VM bound.

import (
	"fmt"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// Reset returns the kernel to its just-constructed state for a run on
// engine; NewKernel is a zero Kernel plus this call. OnAllDone is
// deliberately left in place: the owning VM binds it once, and the closure
// reads only per-run VM fields.
func (k *Kernel) Reset(engine *sim.Engine, cost hw.CostModel, cfg Config, counters *metrics.Counters) error {
	if engine == nil || counters == nil {
		return fmt.Errorf("guest: kernel requires an engine and counters")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := cost.Validate(); err != nil {
		return err
	}
	k.engine = engine
	k.cost = cost
	k.cfg = cfg
	k.counters = counters
	if k.rng == nil {
		k.rng = new(sim.Rand)
	}
	engine.Rand().ForkInto(k.rng, 0x6e57)

	// The new cfg must be installed before the vCPUs reset: they read it
	// for the policy mode/options and the wheel jiffy.
	for _, v := range k.vcpus {
		v.reset()
	}
	k.retireTasks()
	k.recycleSyncObjects()
	// Attached devices are pooled the same way; the next run's AttachDevice
	// calls, replayed in the same order, reset them in place, and the
	// device's Reset drops the requests and events of the finished run.
	recycle(&k.devices, &k.devicePool)
	k.liveTasks = 0
	k.started = false
	if cfg.TaskHint > cap(k.tasks) {
		k.tasks = make([]*Task, 0, cfg.TaskHint)
	}
	return nil
}

// retireTasks moves every task of the finished run into the free pool for
// Spawn to recycle. The Rand object and pre-bound callbacks stay, and so
// does the program: NewProgram hands it out again, zeroed, as the shell of
// the next run's program when the respawning workload asks for the same
// type.
//
//paratick:noalloc
func (k *Kernel) retireTasks() {
	for i, t := range k.tasks {
		k.taskFree = append(k.taskFree, t)
		k.tasks[i] = nil
	}
	k.tasks = k.tasks[:0]
}

// recycleSyncObjects swaps each non-empty sync registry into its pool, so
// the next run's New{Lock,Barrier,Cond} calls — which deterministic scenario
// construction replays in the same order with the same names — become pool
// hits.
//
//paratick:noalloc
func (k *Kernel) recycleSyncObjects() {
	recycle(&k.locks, &k.lockPool)
	recycle(&k.barriers, &k.barrierPool)
	recycle(&k.conds, &k.condPool)
}

// recycle swaps a non-empty registry into its pool, dropping stale pool
// leftovers (objects the previous build never re-claimed) first. A registry
// the finished run never touched leaves its pool alone: an idle run between
// two workload runs must not discard the pooled objects the next workload
// run would have re-claimed.
//
//paratick:noalloc
func recycle[T any](live, pool *[]T) {
	if len(*live) > 0 {
		clear(*pool)
		*live, *pool = (*pool)[:0], *live
	}
}

// reset brings the vCPU to its just-constructed state under the kernel's
// current config; AddVCPUs builds a shell and calls it. Segments still
// queued or issued from a previous run are recycled into the kernel pool,
// the policy is swapped to the cached instance for the mode, and the timer
// wheel is reset in place to the jiffy.
func (v *VCPU) reset() {
	k := v.kernel
	v.clearRunState()
	mode := k.cfg.Mode
	p := v.policyCache[mode]
	if p == nil || !core.ResetPolicy(p, k.cfg.PolicyOpts) {
		p = core.NewPolicy(mode, k.cfg.PolicyOpts)
		v.policyCache[mode] = p
	}
	v.policy = p
	v.wheel.Reset(k.cfg.TickPeriod())
}

// clearRunState recycles leftover segments and zeroes every per-run field
// that Snap moves.
//
//paratick:noalloc
func (v *VCPU) clearRunState() {
	k := v.kernel
	if v.issued != nil {
		k.releaseSeg(v.issued)
		v.issued = nil
	}
	for i, s := range v.queue {
		k.releaseSeg(s)
		v.queue[i] = nil
	}
	v.queue = v.queue[:0]
	clear(v.runq)
	v.runq = v.runq[:0]
	v.current = nil
	v.idle = false
	v.needResched = false
	v.booted = false
	v.timerDeadline = sim.Forever
	v.rcuPending = false
	v.rcuDeadline = sim.Forever
	v.switchCount = 0
	v.lastTickAt = -1
	v.stepCtx = StepCtx{}
}
