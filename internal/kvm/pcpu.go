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

	// phase is the pCPU's one pending completion, done its event: a pCPU
	// runs one thing at a time, so at most one of its windows is open. In
	// the run, exit and HLT phases the in-flight segment is the current
	// vCPU's issued guest segment. since is when the current segment or
	// halt-poll window began; only the run and poll phases read it.
	phase phase
	done  sim.Event
	since sim.Time

	// doneFn is the pre-bound completion handler: a closure literal per
	// completion was once the experiment layer's dominant allocation.
	//snap:skip pre-bound handler, bound at host construction
	doneFn sim.Handler
}

// phase names what a pCPU's pending completion ends.
type phase uint8

const (
	phaseNone      phase = iota // no completion pending: idle, or mid-handler
	phaseRun                    // a guest run segment executes
	phaseExit                   // the host handles an MSR, I/O-kick, IPI or hypercall exit
	phaseHLT                    // the host handles a HLT exit
	phaseIRQ                    // the host handles an interrupt exit; the vCPU resumes
	phaseIRQRotate              // as phaseIRQ, but the timeslice expired: the vCPU rotates out
	phasePoll                   // the halted vCPU busy-waits in the halt-poll window
	phaseWake                   // a woken vCPU waits out the wake-to-dispatch delay
)

// phaseLabels are the event labels of each phase's completion.
var phaseLabels = [...]string{"", "pcpu-run", "pcpu-exit", "pcpu-hlt",
	"pcpu-irq-exit", "pcpu-irq-exit", "pcpu-poll", "pcpu-wakeup"}

// await makes ph the pending completion, d from now.
func (p *PCPU) await(ph phase, d sim.Time) {
	p.phase = ph
	p.done = p.engine.After(d, phaseLabels[ph], p.doneFn)
}

// complete is the one completion handler: it closes the pending phase and
// dispatches on it. The phase handlers read the current vCPU and its issued
// segment from the pCPU; only deschedule and dispatch paths, which run
// after them, change those.
func (p *PCPU) complete(*sim.Engine) {
	ph := p.phase
	p.phase = phaseNone
	switch ph {
	case phaseRun:
		p.runDone()
	case phaseExit:
		p.exitDone()
	case phaseHLT:
		p.hltDone()
	case phaseIRQ:
		p.resume()
	case phaseIRQRotate:
		p.rotate()
	case phasePoll:
		p.pollDone()
	case phaseWake:
		p.maybeDispatch()
	}
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
// free and no wake is pending. The policy may hand back a vCPU stolen from a
// sibling queue; the vCPU is re-homed here (a no-op self-assignment under
// FIFO, which never migrates).
func (p *PCPU) maybeDispatch() {
	if p.current != nil || p.phase == phaseWake {
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
	p.exec(true)
}

// exec fetches and executes the current vCPU's next guest segment, after a
// VM entry (entry hook, pending-interrupt injection) when entry is set or
// an interrupt is pending; otherwise the previous run segment completed
// naturally and the guest simply keeps executing.
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
	p.since = p.now()
	c := p.cost()
	switch seg.Kind {
	case guest.SegRun:
		if seg.Spin {
			p.chargePLE(v, seg)
		}
		p.await(phaseRun, seg.Duration)
	case guest.SegMSRWrite:
		p.takeExit(v, metrics.ExitMSRWrite, c.ExitMSRWrite+c.HostTimerArm, phaseExit)
	case guest.SegHLT:
		if !v.gcpu.ShouldHalt() {
			// need_resched raced ahead of HLT: abort the halt.
			p.exec(true)
			return
		}
		p.takeExit(v, metrics.ExitHLT, c.ExitHLT, phaseHLT)
	case guest.SegIOSubmit:
		p.takeExit(v, metrics.ExitIOKick, c.ExitIOKick, phaseExit)
	case guest.SegIPI:
		p.takeExit(v, metrics.ExitIPI, p.ipiCost(v, seg.Target), phaseExit)
	case guest.SegHypercall:
		p.takeExit(v, metrics.ExitHypercall, c.ExitHypercall, phaseExit)
	default:
		panic("kvm: unknown segment kind")
	}
}

// chargePLE accounts pause-loop exits for a spin segment: one exit per
// elapsed PLE window, charged at once in O(1) however short the window.
// (The spin still runs its full duration; PLE's yield benefit matters only
// under overcommit, which is exactly the paper's argument for disabling it
// otherwise.)
func (p *PCPU) chargePLE(v *VCPU, seg *guestSegment) {
	w := p.host.cfg.PLEWindow
	if w <= 0 || seg.Duration < w {
		return
	}
	p.chargeExits(v, metrics.ExitPLE, p.cost().ExitPLE, uint64(seg.Duration/w))
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
	seg := v.gcpu.Issued()
	p.chargeRun(v, seg, seg.Duration)
	v.gcpu.Return(seg, 0)
	p.exec(false)
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

// chargeExits accounts n VM exits of one reason and per-exit cost, exactly
// as n single charges would: their count, their host cost in overhead and
// in the per-reason histogram, and a trace span. PLE exits are not traced:
// they happen inside a spin segment that keeps running.
func (p *PCPU) chargeExits(v *VCPU, reason metrics.ExitReason, cost sim.Time, n uint64) {
	cnt := v.vm.counters
	cnt.Exits[reason] += n
	cnt.HostOverhead += cost * sim.Time(n)
	cnt.ExitCost[reason].ObserveN(cost, n)
	if reason != metrics.ExitPLE {
		p.traceSpan(trace.KindExit, v, reason.String(), cost)
	}
}

// takeExit charges v a VM exit of reason and occupies the pCPU for its
// host cost in phase ph, whose completion applies the exit's effect.
func (p *PCPU) takeExit(v *VCPU, reason metrics.ExitReason, cost sim.Time, ph phase) {
	p.chargeExits(v, reason, cost, 1)
	p.await(ph, cost)
}

// inGuest reports whether v is executing guest code on this pCPU — the
// only state in which a physical interrupt forces a VM exit.
func (p *PCPU) inGuest(v *VCPU) bool {
	return p.current == v && p.phase == phaseRun
}

// exitDone completes a non-run, non-HLT exit: the host-side handling
// window has elapsed, so apply the segment's architectural effect and
// re-enter the guest.
func (p *PCPU) exitDone() {
	v := p.current
	seg := v.gcpu.Issued()
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
		panic("kvm: exit with unexpected segment kind")
	}
	p.exec(true)
}

// hltDone completes the HLT exit: the vCPU either stays on the CPU (an
// interrupt raced with the halt), enters the halt-poll window, or is
// descheduled.
func (p *PCPU) hltDone() {
	v := p.current
	if v.hasPending() {
		// An interrupt raced with the halt: stay on the CPU.
		p.exec(true)
		return
	}
	if hp := p.host.cfg.HaltPoll; hp > 0 {
		v.state = VCPUHalted
		p.since = p.now()
		p.await(phasePoll, hp)
		return
	}
	p.deschedule(v)
}

// pollDone ends an expired halt-poll window: the polling cycles are charged
// as host overhead and the vCPU is descheduled.
func (p *PCPU) pollDone() {
	v := p.current
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
	if p.phase == phasePoll && p.current == v {
		p.engine.Cancel(p.done)
		p.phase = phaseNone
		v.vm.counters.HostOverhead += p.now() - p.since
		v.state = VCPURunning
		p.exec(true)
		return
	}
	p.enqueue(v)
	if p.current == nil && p.phase != phaseWake {
		p.await(phaseWake, p.cost().HostSchedDelay)
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

// interruptGuest preempts the in-flight run segment and takes the exit;
// its completion resumes the vCPU — or rotates it out when its timeslice
// expired.
func (p *PCPU) interruptGuest(v *VCPU, reason metrics.ExitReason, hostCost sim.Time, expireSlice bool) {
	seg := v.gcpu.Issued()
	elapsed := p.now() - p.since
	p.engine.Cancel(p.done)
	p.phase = phaseNone
	p.chargeRun(v, seg, elapsed)
	v.gcpu.Return(seg, max(seg.Duration-elapsed, 0))
	ph := phaseIRQ
	if expireSlice {
		ph = phaseIRQRotate
	}
	p.takeExit(v, reason, hostCost, ph)
}

// resume completes an interrupt exit by re-entering the guest.
func (p *PCPU) resume() { p.exec(true) }

// rotate completes an interrupt exit whose timeslice expired: the vCPU
// goes back through the run queue and the pCPU dispatches the next one.
func (p *PCPU) rotate() {
	v := p.current
	v.vm.counters.HostOverhead += p.cost().HostSchedSwitch
	p.host.sched.Ran(v, p.now()-v.sliceStart)
	p.enqueue(v)
	p.current = nil
	p.maybeDispatch()
}
