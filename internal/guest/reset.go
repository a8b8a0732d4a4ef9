package guest

// Pooled-reuse reset paths. A kernel owned by a recycled VM (kvm.VMArena)
// is not rebuilt between runs: Reset returns it — vCPUs, tasks, sync
// objects, timer wheels, and queued segments included — to the exact state
// NewKernel would construct, so a recycled VM is byte-identical to a fresh
// one under the snapshot digest audit. The rules that make that identity
// hold:
//
//   - RNG lockstep: NewKernel forks the engine stream with tag 0x6e57 and
//     Spawn forks the kernel stream once per task. Reset and the recycled
//     Spawn path reproduce those forks via ForkInto at the identical draw
//     points, so derived streams match a fresh build bit for bit.
//   - Construction identity survives, per-run state does not: registry ids,
//     names, precomputed blockReason strings, and pre-bound closures
//     (task callbacks, barrier buffers) are reused; everything a
//     fresh constructor would zero is zeroed.
//   - The vCPU count is construction identity: the VM arena only recycles a
//     kernel onto a world with the same number of vCPUs.

import (
	"fmt"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// Reset returns a pooled kernel to the state NewKernel(engine, cost, cfg,
// counters) would construct. OnAllDone is deliberately left in place: the
// owning VM binds it once, and the closure reads only per-run VM fields.
func (k *Kernel) Reset(engine *sim.Engine, cost hw.CostModel, cfg Config, counters *metrics.Counters) error {
	if engine == nil || counters == nil {
		return fmt.Errorf("guest: Reset requires an engine and counters")
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
	// Re-fork the kernel RNG at NewKernel's tag and draw point.
	engine.Rand().ForkInto(k.rng, 0x6e57)

	// The new cfg must be installed before the vCPUs reset: they read it
	// for the policy mode/options and the wheel jiffy.
	for _, v := range k.vcpus {
		v.reset()
	}
	k.retireTasks()
	k.recycleSyncObjects()
	for i := range k.devices {
		k.devices[i] = nil
	}
	k.devices = k.devices[:0]
	k.liveTasks = 0
	k.started = false
	if cfg.TaskHint > cap(k.tasks) {
		k.tasks = make([]*Task, 0, cfg.TaskHint)
	}
	return nil
}

// retireTasks moves every task of the finished run into the free pool for
// Spawn to recycle. The program reference is dropped (it belongs to the
// workload, not the task); the Rand object and pre-bound callbacks stay.
//
//paratick:noalloc
func (k *Kernel) retireTasks() {
	for i, t := range k.tasks {
		t.prog = nil
		k.taskFree = append(k.taskFree, t)
		k.tasks[i] = nil
	}
	k.tasks = k.tasks[:0]
}

// recycleSyncObjects swaps each non-empty sync registry into its pool, so
// the next run's New{Lock,Barrier,Cond} calls — which deterministic scenario
// construction replays in the same order with the same names — become pool
// hits. Stale pool leftovers (objects the previous build never re-claimed)
// are dropped first. A registry the finished run never touched leaves its
// pool alone: an idle run between two workload runs must not discard the
// pooled objects the next workload run would have re-claimed.
//
//paratick:noalloc
func (k *Kernel) recycleSyncObjects() {
	if len(k.locks) > 0 {
		for i := range k.lockPool {
			k.lockPool[i] = nil
		}
		k.locks, k.lockPool = k.lockPool[:0], k.locks
	}
	if len(k.barriers) > 0 {
		for i := range k.barrierPool {
			k.barrierPool[i] = nil
		}
		k.barriers, k.barrierPool = k.barrierPool[:0], k.barriers
	}
	if len(k.conds) > 0 {
		for i := range k.condPool {
			k.condPool[i] = nil
		}
		k.conds, k.condPool = k.condPool[:0], k.conds
	}
}

// reset returns the vCPU to its just-constructed state under the kernel's
// (re-assigned) config: segments still queued or issued from the previous
// run are recycled into the kernel pool, the policy is swapped to the
// cached instance for the new mode, and the timer wheel is reset in place
// to the new jiffy.
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
	if v.wheel != nil {
		v.wheel.Reset(k.cfg.TickPeriod())
	} else {
		v.wheel = k.cfg.Wheels.acquire(k.cfg.TickPeriod())
	}
}

// clearRunState recycles leftover segments and zeroes every per-run field,
// exactly the set AddVCPU initializes and Snap moves.
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
	for i := range v.irqScratch {
		v.irqScratch[i] = nil
	}
	v.irqScratch = v.irqScratch[:0]
	for i := range v.runq {
		v.runq[i] = nil
	}
	v.runq = v.runq[:0]
	v.current = nil
	v.idle = false
	v.needResched = false
	v.booted = false
	v.timerArmed = false
	v.timerDeadline = sim.Forever
	v.rcuPending = false
	v.rcuDeadline = sim.Forever
	v.switchCount = 0
	v.lastTickAt = -1
	v.emit = nil
	v.stepCtx = StepCtx{}
}
