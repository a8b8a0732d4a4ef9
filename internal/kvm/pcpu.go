package kvm

import (
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/metrics"
	"paratick/internal/sim"
	"paratick/internal/trace"
)

// guestSegment aliases the guest's execution unit; the hypervisor executes
// these.
type guestSegment = guest.Segment

// PCPU is one physical CPU: it runs at most one vCPU at a time, fires the
// host scheduler tick, and executes the current vCPU's segment stream,
// charging exit costs as they occur.
type PCPU struct {
	//snap:skip back-pointer wiring, bound at host construction
	//reset:keep back-pointer to the owning host, wired once at construction
	host *Host
	//reset:keep identity fixed at construction; the pooled host keeps its pCPU set
	id hw.CPUID
	// engine is the pCPU's lane engine (its socket's shard); every event
	// this pCPU schedules and every random draw it makes goes through its
	// lane, which is what keeps shard execution race-free and the outcome
	// independent of the shard count.
	//snap:skip lane-engine wiring, re-derived from the topology at construction
	engine *sim.Engine
	//snap:skip lane index, re-derived from the topology at construction
	//reset:keep lane index fixed by the topology, which the host pool keys on
	lane int
	tick *hw.PeriodicTimer

	current *VCPU

	// seg is the in-flight segment: a SegRun in guest context, or any
	// other kind while the host handles its exit. nil while the host is in
	// scheduling/interrupt bookkeeping.
	seg      *guestSegment
	segEvent sim.Event
	segStart sim.Time

	polling         bool
	pollStart       sim.Time
	pollEvent       sim.Event
	dispatchPending bool
	// wakeEvent is the pending wake-to-dispatch delay event scheduled by
	// wake(); held so a snapshot can re-arm it at its original coordinates.
	wakeEvent sim.Event

	// irqExpire carries interruptGuest's expire-slice decision to irqDone.
	irqExpire bool

	// Pre-bound completion handlers, created once in bindHandlers: the
	// exec/exit/halt/wake paths schedule millions of events per run, and a
	// closure literal at each schedule site was the dominant allocation in
	// the whole experiment layer.
	//snap:skip pre-bound handler, recreated by bindHandlers
	runDoneFn sim.Handler
	//snap:skip pre-bound handler, recreated by bindHandlers
	exitDoneFn sim.Handler
	//snap:skip pre-bound handler, recreated by bindHandlers
	hltDoneFn sim.Handler
	//snap:skip pre-bound handler, recreated by bindHandlers
	pollDoneFn sim.Handler
	//snap:skip pre-bound handler, recreated by bindHandlers
	wakeupFn sim.Handler
	//snap:skip pre-bound handler, recreated by bindHandlers
	irqDoneFn sim.Handler
}

// bindHandlers installs the pCPU's pre-bound event handlers. Called once at
// construction; every handler reads the in-flight state (p.current, p.seg,
// p.irqExpire) from the struct instead of a per-event closure environment.
// That state is stable across the host-side handling window: p.current only
// changes in deschedule/dispatch paths that run strictly after these
// handlers, and wake-side paths re-check it.
func (p *PCPU) bindHandlers() {
	p.runDoneFn = func(*sim.Engine) { p.runDone() }
	p.exitDoneFn = func(*sim.Engine) { p.exitDone() }
	p.hltDoneFn = func(*sim.Engine) { p.hltDone() }
	p.pollDoneFn = func(*sim.Engine) { p.pollDone() }
	p.wakeupFn = func(*sim.Engine) {
		p.wakeEvent = sim.Event{}
		p.dispatchPending = false
		p.maybeDispatch()
	}
	p.irqDoneFn = func(*sim.Engine) { p.irqDone() }
}

// ID returns the physical CPU id.
func (p *PCPU) ID() hw.CPUID { return p.id }

// Current returns the vCPU currently owning this pCPU (nil when idle).
func (p *PCPU) Current() *VCPU { return p.current }

// RunQueueLen returns the number of runnable vCPUs waiting for this pCPU.
func (p *PCPU) RunQueueLen() int { return p.host.sched.QueueLen(p.id) }

func (p *PCPU) cost() *hw.CostModel { return &p.host.cost }

// traceEvent records into the host tracer (no-op when tracing is off).
func (p *PCPU) traceEvent(kind trace.Kind, v *VCPU, detail string) {
	p.traceSpan(kind, v, detail, 0)
}

// traceSpan records a durationful event — an exit whose handling occupies
// the pCPU for dur — so the Chrome export renders it as a timeline slice.
func (p *PCPU) traceSpan(kind trace.Kind, v *VCPU, detail string, dur sim.Time) {
	t := p.host.tracerFor(p.lane)
	if t == nil {
		return
	}
	t.Record(trace.Event{
		When: p.now(), Kind: kind, PCPU: int(p.id),
		VM: v.vm.name, VCPU: v.id, Detail: detail, Dur: dur,
	})
}

func (p *PCPU) now() sim.Time { return p.engine.Now() }

func (p *PCPU) enqueue(v *VCPU) {
	v.state = VCPURunnable
	p.host.sched.Enqueue(p.id, v, p.now())
}

// maybeDispatch asks the scheduler for the next runnable vCPU if the pCPU is
// free. The policy may hand back a vCPU stolen from a sibling queue; the
// vCPU is re-homed here (a no-op self-assignment under FIFO, which never
// migrates).
func (p *PCPU) maybeDispatch() {
	if p.current != nil || p.dispatchPending {
		return
	}
	e := p.host.sched.PickNext(p.id, p.now())
	if e == nil {
		return
	}
	v := e.(*VCPU)
	v.pcpu = p
	v.vm.counters.HostOverhead += p.cost().HostSchedSwitch
	p.enter(v)
}

func (p *PCPU) enter(v *VCPU) {
	v.state = VCPURunning
	v.sliceStart = p.now()
	p.current = v
	p.traceEvent(trace.KindSched, v, "enter")
	p.execNext()
}

// execNext performs one VM entry — entry hook, pending-interrupt injection
// — then fetches and executes the next guest segment.
func (p *PCPU) execNext() { p.exec(true) }

// continueGuest fetches the next segment without a VM entry: the previous
// run segment completed naturally and the guest simply keeps executing.
// (A pending interrupt still forces entry semantics — hardware would exit.)
func (p *PCPU) continueGuest() { p.exec(false) }

func (p *PCPU) exec(entry bool) {
	v := p.current
	if v == nil {
		p.maybeDispatch()
		return
	}
	if entry || v.hasPending() {
		if hook := v.vm.hook; hook != nil {
			hook.OnVMEntry(v)
		}
	}
	if v.hasPending() {
		irqs := v.drainPending()
		cnt := v.vm.counters
		cnt.Injections += uint64(len(irqs))
		cnt.HostOverhead += p.cost().InjectIRQ
		now := p.now()
		for _, irq := range irqs {
			cnt.InjectLatency[vectorClass(irq.vec)].Observe(now - irq.since)
			p.traceEvent(trace.KindInject, v, irq.vec.String())
			v.gcpu.Deliver(irq.vec)
		}
		v.recyclePending(irqs)
	}
	seg := v.gcpu.Next()
	p.seg = seg
	p.segStart = p.now()
	c := p.cost()
	switch seg.Kind {
	case guest.SegRun:
		if seg.Spin {
			p.chargePLE(v, seg)
		}
		p.segEvent = p.engine.After(seg.Duration, "pcpu-run", p.runDoneFn)

	case guest.SegMSRWrite:
		p.atomic(metrics.ExitMSRWrite, c.ExitMSRWrite+c.HostTimerArm)

	case guest.SegHLT:
		if !v.gcpu.ShouldHalt() {
			// need_resched raced ahead of HLT: abort the halt.
			p.seg = nil
			p.execNext()
			return
		}
		p.halt(v)

	case guest.SegIOSubmit:
		p.atomic(metrics.ExitIOKick, c.ExitIOKick)

	case guest.SegIPI:
		p.atomic(metrics.ExitIPI, p.ipiCost(v, seg.Target))

	case guest.SegHypercall:
		p.atomic(metrics.ExitHypercall, c.ExitHypercall)

	default:
		panic("kvm: unknown segment kind")
	}
}

// chargePLE accounts pause-loop exits for a spin segment: one exit per
// elapsed PLE window. (The spin still runs its full duration; PLE's yield
// benefit matters only under overcommit, which is exactly the paper's
// argument for disabling it otherwise.)
func (p *PCPU) chargePLE(v *VCPU, seg *guestSegment) {
	w := p.host.cfg.PLEWindow
	if w <= 0 {
		return
	}
	perExit := p.cost().ExitPLE
	for n := int64(seg.Duration / w); n > 0; n-- {
		p.chargeExit(v, metrics.ExitPLE, perExit)
	}
}

// ipiCost prices a wakeup IPI, taxing cross-socket delivery.
func (p *PCPU) ipiCost(v *VCPU, target int) sim.Time {
	c := p.cost().ExitIPI
	topo := p.host.cfg.Topology
	tgt := v.vm.vcpus[target].pcpu.id
	if !topo.SameSocket(p.id, tgt) {
		c = sim.Time(float64(c) * topo.CrossSocketTax)
	}
	return c
}

// runDone completes a guest-run segment.
func (p *PCPU) runDone() {
	v := p.current
	seg := p.seg
	p.seg = nil
	p.segEvent = sim.Event{}
	p.chargeRun(v, seg, seg.Duration)
	v.gcpu.Return(seg, 0)
	p.continueGuest()
}

func (p *PCPU) chargeRun(v *VCPU, seg *guestSegment, d sim.Time) {
	if d <= 0 {
		return
	}
	if seg.Kernel {
		v.vm.counters.GuestKernel += d
	} else {
		v.vm.counters.GuestUseful += d
	}
}

// chargeExit accounts one VM exit: its count, its host cost in overhead and
// in the per-reason histogram, and a trace span. PLE exits are not traced:
// they happen inside a spin segment that keeps running.
func (p *PCPU) chargeExit(v *VCPU, reason metrics.ExitReason, cost sim.Time) {
	cnt := v.vm.counters
	cnt.AddExit(reason)
	cnt.HostOverhead += cost
	cnt.ExitCost[reason].Observe(cost)
	if reason != metrics.ExitPLE {
		p.traceSpan(trace.KindExit, v, reason.String(), cost)
	}
}

// inGuest reports whether v is executing guest code on this pCPU — the
// only state in which a physical interrupt forces a VM exit.
func (p *PCPU) inGuest(v *VCPU) bool {
	return p.current == v && p.seg != nil && p.seg.Kind == guest.SegRun
}

// atomic executes a non-run segment: a VM exit of the given reason whose
// handling occupies the pCPU for hostCost; exitDone then applies its
// effect from the segment fields.
func (p *PCPU) atomic(reason metrics.ExitReason, hostCost sim.Time) {
	p.chargeExit(p.current, reason, hostCost)
	p.segEvent = p.engine.After(hostCost, "pcpu-exit", p.exitDoneFn)
}

// exitDone completes an atomic (non-run, non-HLT) exit: the host-side
// handling window has elapsed, so apply the segment's architectural effect
// and re-enter the guest.
func (p *PCPU) exitDone() {
	v := p.current
	seg := p.seg
	p.seg = nil
	p.segEvent = sim.Event{}
	switch seg.Kind {
	case guest.SegMSRWrite:
		v.guestTimer.Arm(seg.Deadline) // sim.Forever disarms
	case guest.SegIOSubmit:
		seg.Dev.Submit(seg.Req)
	case guest.SegIPI:
		v.vm.vcpus[seg.Target].pendIRQ(hw.RescheduleVector)
	case guest.SegHypercall:
		v.vm.applyHypercall(seg.HKind, seg.HArg)
	default:
		panic("kvm: atomic exit with unexpected segment kind")
	}
	p.execNext()
}

// halt processes a SegHLT: the HLT exit, then either halt polling or
// descheduling.
func (p *PCPU) halt(v *VCPU) {
	cost := p.cost().ExitHLT
	p.chargeExit(v, metrics.ExitHLT, cost)
	p.segEvent = p.engine.After(cost, "pcpu-hlt", p.hltDoneFn)
}

// hltDone completes the HLT exit: the vCPU either stays on the CPU (an
// interrupt raced with the halt), enters the halt-poll window, or is
// descheduled.
func (p *PCPU) hltDone() {
	v := p.current
	p.seg = nil
	p.segEvent = sim.Event{}
	if v.hasPending() {
		// An interrupt raced with the halt: stay on the CPU.
		p.execNext()
		return
	}
	if hp := p.host.cfg.HaltPoll; hp > 0 {
		v.state = VCPUHalted
		p.polling = true
		p.pollStart = p.now()
		p.pollEvent = p.engine.After(hp, "pcpu-poll", p.pollDoneFn)
		return
	}
	p.deschedule(v)
}

// pollDone ends an expired halt-poll window: the polling cycles are charged
// as host overhead and the vCPU is descheduled.
func (p *PCPU) pollDone() {
	v := p.current
	p.polling = false
	p.pollEvent = sim.Event{}
	v.vm.counters.HostOverhead += p.host.cfg.HaltPoll // cycles burned polling
	p.deschedule(v)
}

func (p *PCPU) deschedule(v *VCPU) {
	p.host.sched.Ran(v, p.now()-v.sliceStart)
	v.state = VCPUHalted
	p.current = nil
	p.traceEvent(trace.KindSched, v, "deschedule")
	p.maybeDispatch()
}

// wake transitions a halted vCPU toward running: instantly when it is
// still inside its halt-poll window, otherwise through the run queue with
// the host's wake-to-schedule latency.
func (p *PCPU) wake(v *VCPU) {
	p.traceEvent(trace.KindSched, v, "wake")
	if p.polling && p.current == v {
		p.polling = false
		p.engine.Cancel(p.pollEvent)
		p.pollEvent = sim.Event{}
		v.vm.counters.HostOverhead += p.now() - p.pollStart
		v.state = VCPURunning
		p.execNext()
		return
	}
	p.enqueue(v)
	if p.current == nil && !p.dispatchPending {
		p.dispatchPending = true
		p.wakeEvent = p.engine.After(p.cost().HostSchedDelay, "pcpu-wakeup", p.wakeupFn)
	}
}

// exitIfInGuest takes an interrupt exit of reason, costing cost, when v is
// executing guest code on this pCPU — the only state in which a physical
// interrupt forces a VM exit. In host context the interrupt is absorbed:
// whatever it pended is injected at the next entry.
func (p *PCPU) exitIfInGuest(v *VCPU, reason metrics.ExitReason, cost sim.Time) {
	if p.inGuest(v) {
		p.interruptGuest(v, reason, cost, false)
	}
}

// onHostTick is the host scheduler tick on this pCPU.
func (p *PCPU) onHostTick(now sim.Time) {
	v := p.current
	if v == nil {
		return // idle pCPU: host housekeeping is free for our accounting
	}
	cnt := v.vm.counters
	// The host tick handler's work varies (load balancing, accounting);
	// jittering it also prevents same-period timers from phase-locking
	// onto the handling window deterministically.
	tickWork := p.engine.Rand().Jitter(p.cost().HostTickWork, 0.2)
	if p.inGuest(v) {
		// The tick interrupts guest execution: an external-interrupt exit
		// plus the host tick handler. This is the exit paratick reuses for
		// virtual-tick injection on the subsequent entry.
		expire := p.host.sched.TickPreempt(p.id, v, v.sliceStart, now)
		p.interruptGuest(v, metrics.ExitExternalIRQ,
			p.cost().ExitExternalIRQ+tickWork, expire)
		return
	}
	// Already in host context: the tick is handled without an extra exit.
	cnt.HostOverhead += tickWork
}

// interruptGuest preempts the in-flight run segment, charges the exit, and
// afterwards resumes the vCPU — or rotates it out when its timeslice
// expired.
func (p *PCPU) interruptGuest(v *VCPU, reason metrics.ExitReason, hostCost sim.Time, expireSlice bool) {
	seg := p.seg
	elapsed := p.now() - p.segStart
	p.engine.Cancel(p.segEvent)
	p.segEvent = sim.Event{}
	p.seg = nil
	p.chargeRun(v, seg, elapsed)
	v.gcpu.Return(seg, max(seg.Duration-elapsed, 0))
	p.chargeExit(v, reason, hostCost)
	p.irqExpire = expireSlice
	p.segEvent = p.engine.After(hostCost, "pcpu-irq-exit", p.irqDoneFn)
}

// irqDone completes an interrupt-induced exit: the vCPU resumes, or — when
// its timeslice expired with the interrupt — rotates through the run queue.
func (p *PCPU) irqDone() {
	v := p.current
	p.segEvent = sim.Event{}
	if p.irqExpire {
		v.vm.counters.HostOverhead += p.cost().HostSchedSwitch
		p.host.sched.Ran(v, p.now()-v.sliceStart)
		p.enqueue(v)
		p.current = nil
		p.maybeDispatch()
		return
	}
	p.execNext()
}
