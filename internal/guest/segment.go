package guest

import (
	"fmt"

	"paratick/internal/core"
	"paratick/internal/iodev"
	"paratick/internal/sim"
)

// SegKind classifies the units of guest execution the hypervisor consumes.
// Everything a vCPU does is a stream of segments; SegRun is the only
// preemptible kind (interrupts can cut it short), the others are atomic
// hypervisor interactions.
type SegKind int

const (
	// SegRun executes on the CPU for Duration (user or kernel time).
	SegRun SegKind = iota
	// SegMSRWrite writes the TSC_DEADLINE MSR (Deadline; sim.Forever
	// disarms). Intercepted by the hypervisor: a VM exit.
	SegMSRWrite
	// SegHLT enters the idle state; the vCPU blocks until an interrupt.
	SegHLT
	// SegIOSubmit kicks an emulated I/O device with Req: a VM exit.
	SegIOSubmit
	// SegIPI sends a wakeup IPI to vCPU Target in the same VM: a VM exit.
	SegIPI
	// SegHypercall issues a paravirtual call: a VM exit.
	SegHypercall
)

// String names the segment kind.
func (k SegKind) String() string {
	switch k {
	case SegRun:
		return "run"
	case SegMSRWrite:
		return "msr-write"
	case SegHLT:
		return "hlt"
	case SegIOSubmit:
		return "io-submit"
	case SegIPI:
		return "ipi"
	case SegHypercall:
		return "hypercall"
	}
	return fmt.Sprintf("seg(%d)", int(k))
}

// Segment is one unit of guest execution handed to the hypervisor.
type Segment struct {
	Kind     SegKind
	Label    string
	Duration sim.Time // SegRun only
	Kernel   bool     // SegRun: charge to guest-kernel rather than useful time
	Spin     bool     // SegRun: a pause loop (spinning on a lock); PLE target
	Deadline sim.Time // SegMSRWrite
	Req      *iodev.Request
	Dev      *iodev.Device      // SegIOSubmit
	Target   int                // SegIPI: destination vCPU id
	HKind    core.HypercallKind // SegHypercall
	HArg     int64

	// ownerTask and ownerLock name what completing a run segment means
	// (see VCPU.Return): a task run (ownerTask) ends the task's step, an
	// optimistic spin (both) re-probes ownerLock for ownerTask. Anonymous
	// kernel work has neither.
	ownerTask *Task
	ownerLock *Lock
}

// String renders a segment for diagnostics.
func (s *Segment) String() string {
	switch s.Kind {
	case SegRun:
		mode := "user"
		if s.Kernel {
			mode = "kernel"
		}
		return fmt.Sprintf("run(%v,%s,%s)", s.Duration, mode, s.Label)
	case SegMSRWrite:
		return fmt.Sprintf("msr-write(%v)", s.Deadline)
	case SegIPI:
		return fmt.Sprintf("ipi(->%d)", s.Target)
	default:
		return s.Kind.String()
	}
}
