package kvm

import (
	"fmt"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// VM is one virtual machine: a guest kernel plus its host-side vCPUs and
// devices. All of a VM's exits and cycles accumulate in one counter set.
type VM struct {
	//snap:skip back-pointer wiring, bound when the host adopts the VM
	//reset:keep back-pointer bound at construction, stable across arena reuse
	host *Host
	name string
	// engine is the VM's lane engine: with one lane per socket the VM is
	// contained on one socket and everything it schedules — kernel timers,
	// device completions, vCPU events — goes through its lane.
	//snap:skip lane-engine wiring, re-derived from placement at construction
	engine *sim.Engine
	//snap:skip lane index, re-derived from placement at construction
	lane int
	//snap:skip identity is implicit in the host's save order
	index    int
	kernel   *guest.Kernel
	counters *metrics.Counters
	vcpus    []*VCPU
	//snap:skip mode hook, reinstalled by SetTickMode/SetEntryHook after restore
	hook core.EntryHook

	// defaultHook is the in-place ParatickHost installed for paratick
	// guests; keeping it a value field lets a pooled VM switch modes across
	// runs without allocating a hook. SetEntryHook may still override it.
	//snap:skip value-field hook storage, reinstalled with the mode on restore
	defaultHook core.ParatickHost

	declaredTickHz int
	started        bool
	doneAt         sim.Time
	workloadDone   bool

	// OnWorkloadDone fires when the guest's last task completes; the
	// experiment harness uses it to record wall time and stop the run.
	//snap:skip completion callback, rebound by the harness after restore
	OnWorkloadDone func(now sim.Time)
}

// NewVM creates a VM whose vCPUs are pinned one-to-one onto placement.
// Multiple vCPUs (from this or other VMs) may share a pCPU — that is the
// overcommit scenario of §3.1.
func (h *Host) NewVM(name string, gcfg guest.Config, placement []hw.CPUID) (*VM, error) {
	if len(placement) == 0 {
		return nil, fmt.Errorf("kvm: VM %q needs at least one vCPU placement", name)
	}
	for i, cpu := range placement {
		if cpu < 0 || int(cpu) >= h.cfg.Topology.NumCPUs() {
			return nil, fmt.Errorf("kvm: VM %q vCPU %d placed on invalid pCPU %d", name, i, cpu)
		}
	}
	// Home the VM to its socket's lane. Lane mode requires socket
	// containment: a VM spanning sockets would couple two lanes inside a
	// quantum, which the conservative barrier cannot order.
	lane := 0
	if h.se.Lanes() > 1 {
		lane = h.laneOf(h.cfg.Topology.SocketOf(placement[0]))
		for i, cpu := range placement {
			if l := h.laneOf(h.cfg.Topology.SocketOf(cpu)); l != lane {
				return nil, fmt.Errorf("kvm: VM %q spans sockets (vCPU 0 on lane %d, vCPU %d on lane %d); lane mode requires socket-contained VMs",
					name, lane, i, l)
			}
		}
	}
	vm := h.vmArena.take(len(placement), gcfg.TickHz)
	if vm == nil {
		vm = &VM{host: h, kernel: new(guest.Kernel), counters: new(metrics.Counters)}
		vm.kernel.OnAllDone = func(now sim.Time) {
			vm.workloadDone = true
			vm.doneAt = now
			if vm.OnWorkloadDone != nil {
				vm.OnWorkloadDone(now)
			}
		}
	}
	if err := vm.reset(name, h.se.Engine(lane), lane, gcfg, placement); err != nil {
		return nil, err
	}
	h.vms = append(h.vms, vm)
	return vm, nil
}

// reset binds a VM — a fresh shell from NewVM, or one taken from the
// host's VM arena — to a run: name, lane engine, guest config, and
// placement. The shell's object graph survives: the guest kernel (with its
// tasks, sync objects, segment pool, and timer wheels), the host vCPUs
// with their pre-bound deadline-timer handlers, and the OnAllDone
// completion closure (it captures only the VM and reads per-run fields at
// fire time). A fresh shell builds all of its vCPUs here, at once; a pooled
// VM, keyed on the vCPU count, already has them.
func (vm *VM) reset(name string, engine *sim.Engine, lane int, gcfg guest.Config, placement []hw.CPUID) error {
	h := vm.host
	vm.name = name
	vm.engine = engine
	vm.lane = lane
	vm.index = len(h.vms)
	*vm.counters = metrics.Counters{}
	if err := vm.kernel.Reset(engine, h.cost, gcfg, vm.counters); err != nil {
		return err
	}
	vm.defaultHook = core.ParatickHost{}
	if gcfg.Mode == core.Paratick {
		vm.hook = &vm.defaultHook
	} else {
		vm.hook = nil
	}
	vm.declaredTickHz = 0
	vm.started = false
	vm.doneAt = 0
	vm.workloadDone = false
	vm.OnWorkloadDone = nil
	if vm.vcpus == nil {
		vm.buildVCPUs(len(placement))
	}
	for i, cpu := range placement {
		vm.vcpus[i].reset(h.pcpus[cpu], h.nextSchedKey)
		h.nextSchedKey++
	}
	return nil
}

// pendCap is the capacity of each pending-interrupt buffer. The LAPIC IRR
// dedupes by vector, so the pend queue holds at most the distinct vectors
// in play; 8 covers every scenario without first-run growth, and a buffer
// that needs more reallocates on its own instead of overrunning its
// neighbour's share of the slab.
const pendCap = 8

// buildVCPUs builds the shells of a fresh VM's n vCPUs on n new guest
// vCPUs: one slab of VCPUs (each with its two deadline timers in place)
// and one of pending-interrupt buffers, so a VM costs a fixed number of
// allocations plus one pre-bound handler per timer. VCPU.reset writes
// their per-run state.
func (vm *VM) buildVCPUs(n int) {
	gcpus := vm.kernel.AddVCPUs(n)
	slab := make([]VCPU, n)
	pend := make([]pendingIRQ, 2*n*pendCap)
	vm.vcpus = make([]*VCPU, n)
	for i := range slab {
		v := &slab[i]
		v.vm, v.id, v.gcpu = vm, i, gcpus[i]
		buf := pend[2*i*pendCap:]
		v.pending = buf[:0:pendCap]
		v.pendingSpare = buf[pendCap : pendCap : 2*pendCap]
		v.guestTimer.Init(vm.engine, "timer:guest-timer", func(e *sim.Engine) { v.onGuestTimer(v.guestTimer.Expire(e)) })
		v.topUpTimer.Init(vm.engine, "timer:topup-timer", func(e *sim.Engine) { v.onTopUpTimer(v.topUpTimer.Expire(e)) })
		vm.vcpus[i] = v
	}
}

// SetEntryHook overrides the VM-entry hook (nil disables). NewVM installs
// core.ParatickHost automatically for paratick guests; this override exists
// for ablations (e.g. enabling the §4.1 frequency top-up).
func (vm *VM) SetEntryHook(hook core.EntryHook) { vm.hook = hook }

// Name returns the VM name.
func (vm *VM) Name() string { return vm.name }

// Host returns the host the VM runs on.
func (vm *VM) Host() *Host { return vm.host }

// Kernel returns the guest kernel, used to spawn tasks and create locks.
func (vm *VM) Kernel() *guest.Kernel { return vm.kernel }

// Counters returns the VM's metric counters.
func (vm *VM) Counters() *metrics.Counters { return vm.counters }

// VCPUs returns the host-side vCPUs.
func (vm *VM) VCPUs() []*VCPU { return vm.vcpus }

// WorkloadDone reports whether all guest tasks have finished, and when.
func (vm *VM) WorkloadDone() (bool, sim.Time) { return vm.workloadDone, vm.doneAt }

// AttachDevice attaches a block device with the given profile, wires its
// completion interrupts into this VM, and registers it with the guest. A
// pooled VM resets the device its previous run attached at the same index;
// the profile is validated first, so a refused attach leaves the pool as
// it was.
func (vm *VM) AttachDevice(name string, profile iodev.Profile) (*iodev.Device, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	h := vm.host
	dev := vm.kernel.TakePooledDevice()
	if dev == nil {
		dev = new(iodev.Device)
		// Bound once per device: the kernel, and so its device pool,
		// belongs to this VM for life.
		dev.OnInterrupt = func(vcpu int) {
			if vcpu < 0 || vcpu >= len(vm.vcpus) {
				panic(fmt.Sprintf("kvm: completion for invalid vCPU %d", vcpu))
			}
			vm.vcpus[vcpu].pendIRQ(dev.Vector())
		}
	}
	if err := dev.Reset(vm.engine, name, profile, h.nextIOVector); err != nil {
		return nil, err
	}
	h.nextIOVector++
	vm.kernel.AttachDevice(dev)
	return dev, nil
}

// Device returns the attached device with the given name, or nil.
func (vm *VM) Device(name string) *iodev.Device {
	for _, d := range vm.kernel.Devices() {
		if d.Name() == name {
			return d
		}
	}
	return nil
}

// Start boots every vCPU and makes it runnable. Call after spawning the
// initial tasks.
func (vm *VM) Start() {
	if vm.started {
		panic(fmt.Sprintf("kvm: VM %q started twice", vm.name))
	}
	vm.started = true
	for _, v := range vm.vcpus {
		v.gcpu.Boot()
		v.state = VCPURunnable
		v.pcpu.enqueue(v)
	}
	for _, v := range vm.vcpus {
		v.pcpu.maybeDispatch()
	}
}

// applyHypercall processes a guest paravirtual call.
func (vm *VM) applyHypercall(kind core.HypercallKind, arg int64) {
	switch kind {
	case core.HypercallDeclareTickHz:
		if arg > 0 {
			vm.declaredTickHz = int(arg)
		}
	}
}

// DeclaredTickHz returns the tick frequency the guest announced via
// hypercall (0 before the paratick boot sequence ran).
func (vm *VM) DeclaredTickHz() int { return vm.declaredTickHz }

// GuestTickPeriod returns the declared guest tick period, defaulting to the
// guest kernel's configured rate when no hypercall has arrived.
func (vm *VM) GuestTickPeriod() sim.Time {
	if vm.declaredTickHz > 0 {
		return sim.PeriodFromHz(vm.declaredTickHz)
	}
	return vm.kernel.Config().TickPeriod()
}

// ResultInto writes the VM's metrics into caller-owned storage, so callers
// that harvest results every run allocate nothing. Every field of *out is
// overwritten: the wall time is the workload completion time when the
// workload has finished, otherwise the current time; Events is zeroed —
// the engine event count is the run's, not the VM's, so the scenario layer
// stamps it.
func (vm *VM) ResultInto(out *metrics.Result, workload string) {
	wall := vm.host.Now()
	if vm.workloadDone {
		wall = vm.doneAt
	}
	out.Name = workload
	out.Mode = vm.kernel.Config().Mode.String()
	out.Counters = *vm.counters
	out.WallTime = wall
	out.Events = 0
}
