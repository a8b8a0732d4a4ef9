package core

import "fmt"

// Checkpoint support. Policies are per-vCPU and almost stateless: their
// behaviour is a function of construction-time options plus, for dynticks,
// the single "tick deferred or disabled" bit of Figs. 1a/1c. That bit is
// exposed here as a compact state word so the guest layer can serialize a
// policy without core depending on the snapshot encoding.

// PolicyState returns the policy's mutable per-vCPU state as a word.
// Policies whose behaviour depends only on construction-time options
// return 0.
func PolicyState(p TickPolicy) uint64 {
	if d, ok := p.(*dynticksPolicy); ok && d.stopped {
		return 1
	}
	return 0
}

// SetPolicyState restores a state word produced by PolicyState into a
// freshly constructed policy of the same mode.
func SetPolicyState(p TickPolicy, s uint64) error {
	if d, ok := p.(*dynticksPolicy); ok {
		d.stopped = s&1 != 0
		return nil
	}
	if s != 0 {
		return fmt.Errorf("core: %s policy cannot carry state word %#x", p.Mode(), s)
	}
	return nil
}

// ResetPolicy returns a policy instance to its just-constructed state for
// opts, without allocating: the whole struct is reassigned, so no mutable
// field can leak from the previous run. NewPolicy is a zero instance plus
// this call. Unlike SetOptions it silently ignores opts for modes that take
// none. It reports false when p is not one of the known policy kinds, in
// which case the caller must build fresh.
//
//paratick:noalloc
func ResetPolicy(p TickPolicy, opts Options) bool {
	switch q := p.(type) {
	case *periodicPolicy:
		*q = periodicPolicy{}
	case *dynticksPolicy:
		*q = dynticksPolicy{}
	case *paratickPolicy:
		*q = paratickPolicy{opts: opts}
	default:
		return false
	}
	return true
}

// SetOptions retunes a live policy's options. Only paratick consults
// options; other modes accept only the zero Options. The experiment layer
// uses this to vary ablation knobs across forked snapshot arms without
// rebuilding the policy (which would lose its per-vCPU state).
func SetOptions(p TickPolicy, o Options) error {
	if pt, ok := p.(*paratickPolicy); ok {
		pt.opts = o
		return nil
	}
	if o != (Options{}) {
		return fmt.Errorf("core: %s policy takes no options", p.Mode())
	}
	return nil
}
