package guest

import (
	"fmt"
	"slices"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// Config selects the guest kernel's tick-management behaviour.
type Config struct {
	// TickHz is the scheduler-tick frequency (Linux CONFIG_HZ); the paper
	// evaluates at 250 Hz.
	TickHz int
	// Mode selects the tick policy: periodic, dynticks (paper baseline), or
	// paratick.
	Mode core.Mode
	// PolicyOpts tunes the policy (ablations).
	PolicyOpts core.Options
	// AdaptiveSpin makes contended lock acquisitions spin for this long
	// before blocking (Linux mutex optimistic spinning). 0 = block
	// immediately, the pure blocking synchronization the paper evaluates.
	AdaptiveSpin sim.Time
	// TaskHint, when positive, presizes the kernel's task registry and each
	// vCPU's run queue for roughly this many spawned tasks, so the first run
	// through a pooled kernel does not grow those slices mid-flight. It is a
	// capacity hint only — exceeding it merely reallocates as usual.
	TaskHint int
}

// DefaultConfig returns the paper's guest configuration: 250 Hz dynticks.
func DefaultConfig() Config {
	return Config{TickHz: 250, Mode: core.DynticksIdle}
}

const (
	// rcuEveryNSwitches is the RCU model: after every N guest context
	// switches an RCU grace period is pending, requiring tick service
	// (Fig. 1b's "tick explicitly needed"). RCU blocks tick-stopping rarely
	// in practice; once per ~2000 context switches keeps that branch
	// exercised without distorting the idle-transition MSR traffic §3.2
	// analyzes.
	rcuEveryNSwitches = 2000
	// preemptOnTick enables round-robin task preemption from the tick
	// handler (the scheduler work ticks exist for).
	preemptOnTick = true
)

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TickHz <= 0 {
		return fmt.Errorf("guest: TickHz must be positive, got %d", c.TickHz)
	}
	if c.TickPeriod() <= 0 {
		return fmt.Errorf("guest: TickHz %d exceeds 1 GHz, the nanosecond clock's resolution", c.TickHz)
	}
	if c.AdaptiveSpin < 0 {
		return fmt.Errorf("guest: AdaptiveSpin must be non-negative, got %v", c.AdaptiveSpin)
	}
	if c.TaskHint < 0 {
		return fmt.Errorf("guest: TaskHint must be non-negative, got %d", c.TaskHint)
	}
	switch c.Mode {
	case core.Periodic, core.DynticksIdle, core.Paratick:
	default:
		return fmt.Errorf("guest: unknown tick mode %d", int(c.Mode))
	}
	return nil
}

// TickPeriod returns the tick period implied by TickHz.
func (c Config) TickPeriod() sim.Time { return sim.PeriodFromHz(c.TickHz) }

// Kernel is one guest operating system instance (one VM). It owns vCPUs,
// tasks, synchronization objects, and attached devices. The hypervisor
// (internal/kvm) executes the segments its vCPUs emit.
type Kernel struct {
	//snap:skip engine wiring, bound at construction and never replaced
	engine *sim.Engine
	//snap:skip immutable cost model from the scenario configuration
	cost hw.CostModel
	//snap:skip immutable guest configuration from the scenario
	cfg Config
	//snap:skip aliases the harness-owned counters the kvm layer snapshots
	counters *metrics.Counters
	rng      *sim.Rand

	vcpus   []*VCPU
	tasks   []*Task
	devices []*iodev.Device

	// locks, barriers and conds register every synchronization object in
	// creation order. The registries give each object a stable small id so
	// checkpoints can reference them (task placements, spin-segment owners)
	// without serializing pointers; deterministic scenario construction
	// guarantees a rebuilt kernel assigns the same ids.
	locks    []*Lock
	barriers []*Barrier
	conds    []*Cond

	//snap:skip derived: recounted as tasks are restored
	liveTasks int
	// place holds each task's placement, indexed by task ID, while the
	// kernel moves through a snapshot stream.
	//reset:keep scratch: rewritten by every save and load, capacity only
	place   []placement
	started bool
	// OnAllDone fires when the last live task finishes — the workload's
	// completion instant (the paper's "execution time" metric endpoint).
	//snap:skip completion callback, rebound by the harness after restore
	OnAllDone func(now sim.Time)

	// segFree pools Segment objects: every unit of guest execution used to
	// be a fresh heap literal, which made segment churn the second-largest
	// allocation source in whole-experiment profiles. Segments cycle
	// acquire → queue → issue → release (at the vCPU's next fetch), LIFO.
	// The pool grows a segSlab at a time, so it ends a run holding about
	// as many segments as the kernel's vCPUs held at once, and a pooled
	// kernel keeps them (and only them) for its next run.
	//snap:skip pool of recycled segments, capacity only
	segFree []*Segment

	// taskFree holds the previous run's Task objects after a Reset, reused
	// by Spawn in LIFO order. A recycled task keeps its pre-bound sleep
	// callback (it reads t.vcpu at call time, so re-homing is safe) and its
	// Rand object (reseeded via ForkInto at the identical draw point), and
	// its last program, which NewProgram reuses as the shell of the next.
	//snap:skip pool of recycled tasks, capacity only
	taskFree []*Task

	// lockPool, barrierPool and condPool hold the previous run's
	// synchronization objects after a Reset, indexed by their registry id.
	// New{Lock,Barrier,Cond} recycle the object at the id being assigned
	// when its name matches — deterministic scenario construction recreates
	// sync objects in the same order with the same names, so in steady
	// state every constructor call is a pool hit that keeps the waiter
	// buffers' capacity.
	//snap:skip pool of recycled sync objects, capacity only
	lockPool []*Lock
	//snap:skip pool of recycled sync objects, capacity only
	barrierPool []*Barrier
	//snap:skip pool of recycled sync objects, capacity only
	condPool []*Cond
	// devicePool holds the previous run's attached devices after a Reset,
	// indexed by attach order. The hypervisor resets the one at the next
	// attach index (TakePooledDevice) instead of building a device.
	//snap:skip pool of recycled devices, reset by the hypervisor on attach
	devicePool []*iodev.Device
}

// segSlab is how many segments are allocated at once when the pool runs
// dry. A pool grows by what its vCPUs hold at once, not by a worst case: a
// vCPU of tick-exits, sync-wakeups or io-lanes never queues more than 6
// segments, so a slab of 8 holds one vCPU's worth, and a kernel whose
// vCPUs hold more takes one more slab per 8. At 64, every pooled kernel
// kept a 7 KiB slab that was mostly never touched. With the slab and
// vcpuQueueCap at 8, io-lanes' heap_live_mb fell from 0.558 to 0.448 MiB
// (a fifth of it) with allocs_per_op level.
// Allocating on every miss (a slab of 1) holds barely less (paper-suite
// 0.342 against 0.346 MiB) for 3–4% more allocs_per_op on sync-wakeups
// (6.97 against 6.77) and paper-suite (24,415 against 23,600).
const segSlab = 8

// vcpuQueueCap is a vCPU's initial segment-queue capacity, sized like
// segSlab by what a vCPU queues at once (at most 6 on three of the four
// bench workloads). append grows the few queues that hold more (one
// paper-suite vCPU reaches 130), and Reset keeps the grown capacity.
const vcpuQueueCap = 8

// acquireSeg returns a zeroed segment from the pool. A dry pool takes one
// slab of segSlab segments, hands out the first and pools the rest, so
// steady state allocates nothing and a refill is rare.
//
//paratick:noalloc
func (k *Kernel) acquireSeg() *Segment {
	if n := len(k.segFree); n > 0 {
		s := k.segFree[n-1]
		k.segFree[n-1] = nil
		k.segFree = k.segFree[:n-1]
		return s
	}
	//lint:ignore A001 slab refill: one allocation amortized over segSlab segments, absent in steady state
	slab := make([]Segment, segSlab)
	for i := 1; i < segSlab; i++ {
		k.segFree = append(k.segFree, &slab[i])
	}
	return &slab[0]
}

// releaseSeg recycles a fully consumed segment. Zeroing drops the owner,
// device, and request references so the pool retains no state.
//
//paratick:noalloc
func (k *Kernel) releaseSeg(s *Segment) {
	*s = Segment{}
	k.segFree = append(k.segFree, s)
}

// NewKernel creates a guest kernel recording into counters: an empty shell
// that Reset initializes, the same path a pooled kernel takes.
func NewKernel(engine *sim.Engine, cost hw.CostModel, cfg Config, counters *metrics.Counters) (*Kernel, error) {
	k := new(Kernel)
	if err := k.Reset(engine, cost, cfg, counters); err != nil {
		return nil, err
	}
	return k, nil
}

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// SetAdaptiveSpin adjusts the optimistic-spin window at runtime. The value
// is consulted afresh on every contended acquisition, so the change applies
// from the next lock attempt on — the experiment layer varies it across
// forked snapshot arms.
func (k *Kernel) SetAdaptiveSpin(d sim.Time) error {
	if d < 0 {
		return fmt.Errorf("guest: AdaptiveSpin must be non-negative, got %v", d)
	}
	k.cfg.AdaptiveSpin = d
	return nil
}

// SetPolicyOptions retunes every vCPU's tick policy at runtime, preserving
// the policies' accumulated state (unlike rebuilding them).
func (k *Kernel) SetPolicyOptions(o core.Options) error {
	for _, v := range k.vcpus {
		if err := core.SetOptions(v.policy, o); err != nil {
			return err
		}
	}
	k.cfg.PolicyOpts = o
	return nil
}

// Counters returns the metrics sink shared with the hypervisor.
func (k *Kernel) Counters() *metrics.Counters { return k.counters }

// Now returns current simulated time.
func (k *Kernel) Now() sim.Time { return k.engine.Now() }

// VCPUs returns the kernel's vCPUs.
func (k *Kernel) VCPUs() []*VCPU { return k.vcpus }

// AddVCPUs creates the next n vCPUs and returns them. All vCPUs must be
// added before tasks spawn. The vCPUs, their timer wheels and tick
// policies, and the backing arrays of their segment and run queues come
// from one slab each, so adding n vCPUs costs a fixed number of
// allocations. Each queue is carved with a full slice expression: one that
// outgrows its share reallocates on its own instead of overrunning its
// neighbour's.
func (k *Kernel) AddVCPUs(n int) []*VCPU {
	runqCap := 16
	if k.cfg.TaskHint > runqCap {
		// Wakes append to a task's home run queue, so in the worst case one
		// vCPU queues every task of the VM — size for that so the first run
		// never grows the queue.
		runqCap = k.cfg.TaskHint
	}
	slab := make([]VCPU, n)
	wheels := make([]TimerWheel, n)
	policies := make([]core.TickPolicy, n)
	core.FillPolicies(k.cfg.Mode, k.cfg.PolicyOpts, policies)
	queues := make([]*Segment, n*vcpuQueueCap)
	runqs := make([]*Task, n*runqCap)
	first := len(k.vcpus)
	k.vcpus = slices.Grow(k.vcpus, n)
	for i := range slab {
		v := &slab[i]
		v.kernel, v.id, v.wheel = k, first+i, &wheels[i]
		v.policyCache[k.cfg.Mode] = policies[i]
		v.queue = queues[i*vcpuQueueCap : i*vcpuQueueCap : (i+1)*vcpuQueueCap]
		v.runq = runqs[i*runqCap : i*runqCap : (i+1)*runqCap]
		v.reset()
		k.vcpus = append(k.vcpus, v)
	}
	return k.vcpus[first:]
}

// AttachDevice registers a block device whose completion interrupts this
// guest handles.
func (k *Kernel) AttachDevice(d *iodev.Device) {
	if d == nil {
		panic("guest: AttachDevice(nil)")
	}
	k.devices = append(k.devices, d)
}

// Devices returns the attached devices.
func (k *Kernel) Devices() []*iodev.Device { return k.devices }

// TakePooledDevice removes and returns the device the previous run attached
// at the index the next AttachDevice fills, or nil. The caller resets it
// and attaches it; deterministic scenario construction attaches devices in
// the same order each run, so in steady state every attach is a pool hit.
//
//paratick:noalloc
func (k *Kernel) TakePooledDevice() *iodev.Device {
	i := len(k.devices)
	if i >= len(k.devicePool) {
		return nil
	}
	d := k.devicePool[i]
	k.devicePool[i] = nil
	return d
}

// claim takes the pooled sync object at registry id when deterministic
// scenario construction is recreating it under the same name, or returns
// the zero value so the caller builds a fresh shell.
func claim[T interface {
	comparable
	Name() string
}](pool []T, id int, name string) T {
	var none T
	if id < len(pool) && pool[id] != none && pool[id].Name() == name {
		obj := pool[id]
		pool[id] = none
		return obj
	}
	return none
}

// NewLock creates a guest-level blocking mutex.
func (k *Kernel) NewLock(name string) *Lock {
	id := len(k.locks)
	l := claim(k.lockPool, id, name)
	if l == nil {
		l = &Lock{id: id, name: name}
	}
	l.reset()
	k.locks = append(k.locks, l)
	return l
}

// NewBarrier creates a guest-level barrier for parties tasks.
func (k *Kernel) NewBarrier(name string, parties int) *Barrier {
	if parties <= 0 {
		panic(fmt.Sprintf("guest: barrier %q needs positive parties, got %d", name, parties))
	}
	id := len(k.barriers)
	b := claim(k.barrierPool, id, name)
	if b == nil {
		// The barrier can hold parties-1 blocked tasks (the last arrival
		// releases everyone); size both cycle buffers up front so the first
		// cycle does not grow them.
		b = &Barrier{name: name,
			waiting: make([]*Task, 0, parties-1), spare: make([]*Task, 0, parties-1)}
	}
	b.reset(parties)
	k.barriers = append(k.barriers, b)
	return b
}

// Spawn creates a task running prog, pinned to the given vCPU. Tasks are
// runnable immediately.
func (k *Kernel) Spawn(name string, vcpu int, prog Program) *Task {
	if vcpu < 0 || vcpu >= len(k.vcpus) {
		panic(fmt.Sprintf("guest: Spawn %q on vCPU %d of %d", name, vcpu, len(k.vcpus)))
	}
	if prog == nil {
		panic("guest: Spawn with nil program")
	}
	var t *Task
	if n := len(k.taskFree); n > 0 {
		t = k.taskFree[n-1]
		k.taskFree[n-1] = nil
		k.taskFree = k.taskFree[:n-1]
	} else {
		t = &Task{rng: new(sim.Rand)}
		// Pre-bind the sleep callback once: a sleep timer fires millions of
		// times per run, and a closure literal per occurrence dominated
		// allocation profiles. It reads t.vcpu at call time, so it survives
		// re-homing when the task is recycled into a later run.
		t.sleepFireFn = func(sim.Time) { k.wake(t, t.vcpu) }
	}
	// Only the shell (Rand object and pre-bound callback) survives; every
	// other field is rewritten here, for fresh and recycled tasks alike.
	*t = Task{
		ID: len(k.tasks), Name: name, prog: prog, vcpu: k.vcpus[vcpu], state: TaskRunnable,
		rng: t.rng, sleepFireFn: t.sleepFireFn, startedAt: k.engine.Now(),
	}
	k.rng.ForkInto(t.rng, uint64(len(k.tasks))+0x7a5c)
	k.tasks = append(k.tasks, t)
	k.liveTasks++
	t.vcpu.runq = append(t.vcpu.runq, t)
	return t
}

// NewProgram returns zeroed storage of type P for the program of the next
// task Spawn creates, so a workload respawned into a recycled kernel
// allocates no program. When the task Spawn will recycle next ran a *P in
// its last run, that program is reused in place. Otherwise the storage is
// the next slot of *slab, which is allocated on the first miss with room
// for left programs: the one being made and those the caller will ask for
// after it. A workload calls it once per task, right before that task's
// Spawn, with one slab variable for the whole spawn, so a fresh kernel
// costs one allocation per spawn, as a slab built up front would.
func NewProgram[P any](k *Kernel, slab *[]P, left int) *P {
	if n := len(k.taskFree); n > 0 {
		if p, ok := any(k.taskFree[n-1].prog).(*P); ok {
			var zero P
			*p = zero
			return p
		}
	}
	if len(*slab) == 0 {
		*slab = make([]P, left)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
	return p
}

// Tasks returns all spawned tasks.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// LiveTasks returns the number of tasks not yet done.
func (k *Kernel) LiveTasks() int { return k.liveTasks }

func (k *Kernel) taskDone(t *Task) {
	t.state = TaskDone
	t.finishedAt = k.engine.Now()
	k.liveTasks--
	if k.liveTasks == 0 && k.OnAllDone != nil {
		k.OnAllDone(k.engine.Now())
	}
}

// defaultKernelCost maps policy work labels to calibrated costs, letting
// internal/core charge work without depending on the cost model.
func (k *Kernel) defaultKernelCost(label string) sim.Time {
	switch label {
	case "idle-enter-eval":
		return k.cost.GuestIdleEnterWork
	case "idle-exit":
		return k.cost.GuestIdleExitWork
	case "paratick-stale-timer":
		return 200
	default:
		return 300
	}
}
