// Package sched is the host's pluggable vCPU scheduling layer. The
// hypervisor run loop (internal/kvm) owns VM entries, exits and interrupt
// injection; *which* runnable vCPU a physical CPU executes next, and when a
// running vCPU's turn ends, is decided here, behind the Scheduler interface.
//
// Two policies are provided. FIFO reproduces the original hardcoded
// behaviour bit for bit: per-pCPU FIFO ready queues and a fixed timeslice
// checked at host ticks. Fair is a CFS-like virtual-runtime policy with
// per-socket idle work stealing, which schedules overcommitted vCPUs with
// pending interrupt injections sooner (§3.1's consolidation scenario).
//
// Determinism contract: schedulers must be pure functions of the call
// sequence. No map iteration anywhere; every ordering decision breaks ties
// on Node.Key (the vCPU's host-wide creation ordinal) and then on the lower
// CPU id, so a fixed seed reproduces runs byte for byte at any worker count.
package sched

import (
	"fmt"

	"paratick/internal/hw"
	"paratick/internal/sim"
	"paratick/internal/snap"
)

// Kind selects a scheduling policy. The zero value is FIFO, the legacy
// behaviour, so zero-valued configs remain behaviour-preserving.
type Kind int

const (
	// FIFO is the original policy: strict per-pCPU arrival order, fixed
	// timeslice, no migration.
	FIFO Kind = iota
	// Fair is a CFS-like policy: least virtual runtime first, a timeslice
	// that shrinks with queue depth, and per-socket idle work stealing.
	Fair
)

// String names the policy.
func (k Kind) String() string {
	switch k {
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	default:
		return fmt.Sprintf("sched(%d)", int(k))
	}
}

// Parse resolves "fifo" or "fair".
func Parse(s string) (Kind, error) {
	switch s {
	case "fifo", "":
		return FIFO, nil
	case "fair", "cfs":
		return Fair, nil
	default:
		return 0, fmt.Errorf("sched: unknown policy %q (want fifo or fair)", s)
	}
}

// Validate reports whether the kind is a known policy.
func (k Kind) Validate() error {
	switch k {
	case FIFO, Fair:
		return nil
	default:
		return fmt.Errorf("sched: unknown policy %d", int(k))
	}
}

// Node is the scheduler-owned per-entity state. Entities (host vCPUs) embed
// one and expose it through Entity.SchedNode, so schedulers never need maps
// keyed by entity.
type Node struct {
	// Key is a stable host-wide ordinal assigned at entity creation. All
	// ordering ties break on it (never on pointers or map order), which is
	// what keeps scheduling decisions reproducible.
	Key uint64

	// vruntime is the entity's accumulated weighted CPU occupancy (Fair).
	vruntime sim.Time
}

// VRuntime exposes the accumulated virtual runtime (for tests and reports).
func (n *Node) VRuntime() sim.Time { return n.vruntime }

// Entity is one schedulable thread of execution — in this repo, a host-side
// vCPU. The scheduler sees entities opaquely through their Node.
type Entity interface {
	SchedNode() *Node
}

// Scheduler decides which entity each physical CPU runs next. One instance
// serves the whole host (so policies can see sibling queues for work
// stealing); callers index it by CPU id.
//
// The hypervisor calls it at four points:
//
//   - Enqueue when a vCPU becomes runnable (boot, wake, timeslice rotation);
//   - PickNext when a pCPU is free and wants work (the policy may return an
//     entity stolen from a sibling queue; the caller re-homes it);
//   - TickPreempt at every host tick under a running vCPU, to decide
//     whether its turn is over;
//   - Ran when a vCPU leaves its pCPU, charging the occupancy it consumed.
type Scheduler interface {
	// Name returns the policy name ("fifo", "fair").
	Name() string
	// Enqueue makes e runnable on cpu's ready queue.
	Enqueue(cpu hw.CPUID, e Entity, now sim.Time)
	// PickNext removes and returns the entity cpu should run next, or nil
	// when no work is available anywhere the policy is willing to look.
	PickNext(cpu hw.CPUID, now sim.Time) Entity
	// QueueLen reports how many entities wait on cpu's ready queue.
	QueueLen(cpu hw.CPUID) int
	// TickPreempt reports whether the entity running on cpu since
	// sliceStart should be rotated out at a host tick firing at now.
	TickPreempt(cpu hw.CPUID, running Entity, sliceStart, now sim.Time) bool
	// Ran charges d of pCPU occupancy to e (guest execution plus the exit
	// handling done on its behalf). Policies that do not account runtime
	// ignore it.
	Ran(e Entity, d sim.Time)
	// Reset returns the scheduler to its freshly built state with a new
	// base timeslice, retaining queue capacity — the pooled-host reuse
	// path. A reset scheduler must behave identically to a newly built one.
	Reset(timeslice sim.Time)
	// Snap moves the scheduler's queue state through a checkpoint stream.
	// Entities travel as their Node.Key; decoding, into a freshly built
	// scheduler of the same kind and topology, resolves keys through lookup.
	Snap(s *snap.Stream, lookup func(key uint64) Entity)
}

// New builds a scheduler of the given kind for a host with the given
// topology and base timeslice.
func New(kind Kind, topo hw.Topology, timeslice sim.Time) (Scheduler, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if timeslice <= 0 {
		return nil, fmt.Errorf("sched: timeslice must be positive, got %v", timeslice)
	}
	switch kind {
	case FIFO:
		return newFIFO(topo, timeslice), nil
	case Fair:
		return newFair(topo, timeslice), nil
	default:
		return nil, kind.Validate()
	}
}
