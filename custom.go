package paratick

import (
	"fmt"
	"time"

	"paratick/internal/guest"
	"paratick/internal/iodev"
	"paratick/internal/kvm"
	"paratick/internal/sim"
)

// CustomWorkload builds an arbitrary guest workload: the setup function
// receives a Builder to attach devices, create synchronization objects, and
// spawn task programs.
func CustomWorkload(label string, setup func(b *Builder) error) Workload {
	return &customWL{label: label, setup: setup}
}

type customWL struct {
	label string
	setup func(b *Builder) error
}

func (w *customWL) name() string {
	if w.label != "" {
		return w.label
	}
	return "custom"
}

func (w *customWL) apply(b *Builder) error {
	if w.setup == nil {
		return fmt.Errorf("paratick: CustomWorkload with nil setup")
	}
	return w.setup(b)
}

// Builder assembles a custom workload inside a fresh VM.
type Builder struct {
	vm      *kvm.VM
	devices int
	// invalid is the first operation a spawned program issued that the
	// simulator cannot execute; Run reports it once the run ends.
	invalid error
}

// VCPUs returns the VM's vCPU count, for spreading tasks.
func (b *Builder) VCPUs() int { return len(b.vm.VCPUs()) }

// AttachDevice adds a block device of the given class.
func (b *Builder) AttachDevice(name string, class DeviceClass) (*Device, error) {
	dev, err := b.vm.AttachDevice(name, class.profile())
	if err != nil {
		return nil, err
	}
	b.devices++
	return &Device{dev: dev}, nil
}

// AttachCustomDevice adds a block device with explicit latencies — useful
// for controlled experiments (delay lines, hypothetical ultra-low-latency
// storage).
func (b *Builder) AttachCustomDevice(name string, readLatency, writeLatency time.Duration) (*Device, error) {
	profile := iodev.Profile{
		Name:       name,
		ReadBase:   sim.Time(readLatency.Nanoseconds()),
		WriteBase:  sim.Time(writeLatency.Nanoseconds()),
		SeqFactor:  1,
		QueueDepth: 32,
		Jitter:     0.05,
	}
	dev, err := b.vm.AttachDevice(name, profile)
	if err != nil {
		return nil, err
	}
	b.devices++
	return &Device{dev: dev}, nil
}

// NewLock creates a guest-level blocking mutex.
func (b *Builder) NewLock(name string) *Lock {
	return &Lock{l: b.vm.Kernel().NewLock(name)}
}

// NewBarrier creates a guest-level barrier for parties tasks.
func (b *Builder) NewBarrier(name string, parties int) *Barrier {
	return &Barrier{b: b.vm.Kernel().NewBarrier(name, parties)}
}

// NewCond creates a condition variable paired with l.
func (b *Builder) NewCond(name string, l *Lock) *Cond {
	return &Cond{c: b.vm.Kernel().NewCond(name, l.l)}
}

// Spawn creates a task on the given vCPU running prog.
func (b *Builder) Spawn(name string, vcpu int, prog Program) error {
	if prog == nil {
		return fmt.Errorf("paratick: Spawn %q with nil program", name)
	}
	if vcpu < 0 || vcpu >= b.VCPUs() {
		return fmt.Errorf("paratick: Spawn %q on vCPU %d of %d", name, vcpu, b.VCPUs())
	}
	b.vm.Kernel().Spawn(name, vcpu, &progAdapter{prog: prog, name: name, b: b})
	return nil
}

// Device wraps a block device for custom programs.
type Device struct{ dev *iodev.Device }

// iodev returns the wrapped device, or nil for a nil *Device.
func (d *Device) iodev() *iodev.Device {
	if d == nil {
		return nil
	}
	return d.dev
}

// Ops returns the number of completed device operations.
func (d *Device) Ops() uint64 { return d.dev.Ops() }

// Lock wraps a guest mutex.
type Lock struct{ l *guest.Lock }

// Acquisitions returns successful acquisitions so far.
func (l *Lock) Acquisitions() uint64 { return l.l.Acquisitions() }

// Contended returns how many acquisitions had to block.
func (l *Lock) Contended() uint64 { return l.l.Contended() }

// Cond wraps a guest condition variable.
type Cond struct{ c *guest.Cond }

// Waits returns the total number of waits performed.
func (c *Cond) Waits() uint64 { return c.c.Waits() }

// Barrier wraps a guest barrier.
type Barrier struct{ b *guest.Barrier }

// Cycles returns how many times the barrier has released.
func (b *Barrier) Cycles() uint64 { return b.b.Cycles() }

// Context is passed to Program.Next: the current simulated time, the task
// id, and deterministic randomness helpers.
type Context struct {
	Now    time.Duration
	TaskID int
	rand   *sim.Rand
}

// Float64 returns a uniform value in [0,1).
func (c *Context) Float64() float64 { return c.rand.Float64() }

// Intn returns a uniform value in [0,n).
func (c *Context) Intn(n int) int { return c.rand.Intn(n) }

// Jitter perturbs d by ±f (e.g. 0.2 = ±20%).
func (c *Context) Jitter(d time.Duration, f float64) time.Duration {
	return time.Duration(c.rand.Jitter(sim.Time(d.Nanoseconds()), f))
}

// Exp returns an exponentially distributed duration with the given mean.
func (c *Context) Exp(mean time.Duration) time.Duration {
	return time.Duration(c.rand.Exp(sim.Time(mean.Nanoseconds())))
}

// Program generates a task's behaviour one operation at a time; Next is
// called when the previous operation (including any blocking) completed.
type Program interface {
	Next(ctx *Context) Op
}

// ProgramFunc adapts a function to Program.
type ProgramFunc func(ctx *Context) Op

// Next implements Program.
func (f ProgramFunc) Next(ctx *Context) Op { return f(ctx) }

// Sequence returns a Program replaying fixed ops, then finishing.
func Sequence(ops ...Op) Program {
	i := 0
	return ProgramFunc(func(*Context) Op {
		if i >= len(ops) {
			return OpDone()
		}
		op := ops[i]
		i++
		return op
	})
}

// Op is one operation of a custom program. Create ops with the
// constructors; the zero Op finishes the task.
type Op struct{ step guest.Step }

// OpCompute runs on the CPU for d.
func OpCompute(d time.Duration) Op {
	return Op{guest.Compute(sim.Time(d.Nanoseconds()))}
}

// OpSleep blocks the task on a soft timer for d.
func OpSleep(d time.Duration) Op {
	return Op{guest.Sleep(sim.Time(d.Nanoseconds()))}
}

// OpAcquire takes the lock, blocking on contention.
func OpAcquire(l *Lock) Op { return Op{guest.Acquire(l.l)} }

// OpRelease releases the lock, waking the next waiter.
func OpRelease(l *Lock) Op { return Op{guest.Release(l.l)} }

// OpWait atomically releases the cond's lock, blocks until signaled, and
// re-acquires the lock (the caller must hold it).
func OpWait(c *Cond) Op { return Op{guest.Wait(c.c)} }

// OpSignal wakes one waiter of the cond.
func OpSignal(c *Cond) Op { return Op{guest.Signal(c.c)} }

// OpBroadcast wakes all waiters of the cond.
func OpBroadcast(c *Cond) Op { return Op{guest.Broadcast(c.c)} }

// OpBarrier joins the barrier.
func OpBarrier(b *Barrier) Op { return Op{guest.JoinBarrier(b.b)} }

// OpLeaveBarrier detaches from the barrier party (call before finishing a
// task that participates in a barrier).
func OpLeaveBarrier(b *Barrier) Op { return Op{guest.LeaveBarrier(b.b)} }

// OpRead performs a synchronous read of n bytes.
func OpRead(d *Device, n int, sequential bool) Op {
	return Op{guest.Read(d.iodev(), n, sequential)}
}

// OpWrite performs a write of n bytes; blocking selects sync semantics.
func OpWrite(d *Device, n int, sequential, blocking bool) Op {
	return Op{guest.WriteOp(d.iodev(), n, sequential, blocking)}
}

// OpYield relinquishes the CPU to the next runnable task.
func OpYield() Op { return Op{guest.Yield()} }

// OpDone finishes the task.
func OpDone() Op { return Op{guest.Done()} }

type progAdapter struct {
	prog Program
	name string
	b    *Builder
}

func (a *progAdapter) Next(ctx *guest.StepCtx) guest.Step {
	c := &Context{Now: time.Duration(ctx.Now), TaskID: ctx.TaskID, rand: ctx.Rand}
	step := a.prog.Next(c).step
	// The zero Op (and a zero-duration compute) finishes the task; letting
	// it through would spin the scheduler without advancing time.
	if step.Kind == guest.StepCompute && step.D <= 0 {
		return guest.Done()
	}
	// An I/O the device cannot accept ends the task; Run returns the first
	// one as its error.
	if step.Kind == guest.StepIO && (step.Dev == nil || step.Bytes <= 0) {
		if a.b.invalid == nil {
			op := "read"
			if step.Write {
				op = "write"
			}
			if step.Dev == nil {
				a.b.invalid = fmt.Errorf("paratick: program %q issued a %s of %d bytes on a nil device", a.name, op, step.Bytes)
			} else {
				a.b.invalid = fmt.Errorf("paratick: program %q issued a %s of %d bytes; I/O needs a positive byte count", a.name, op, step.Bytes)
			}
		}
		return guest.Done()
	}
	return step
}
