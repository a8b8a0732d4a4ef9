package kvm

import (
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// TestInterruptExitsOnlyFromGuestCode fires each physical-interrupt source
// at a vCPU while it executes a guest run segment, and again while its pCPU
// is in the exit window that follows. Every source must charge exactly one
// exit of its reason and cost the first time and none the second: in host
// context the interrupt is absorbed and injected at the next entry.
func TestInterruptExitsOnlyFromGuestCode(t *testing.T) {
	cost := hw.DefaultCostModel()
	for _, tc := range []struct {
		name   string
		reason metrics.ExitReason
		cost   sim.Time
		fire   func(busy, other *VCPU)
	}{
		{"device-vector", metrics.ExitExternalIRQ, cost.ExitExternalIRQ,
			func(busy, _ *VCPU) { busy.pendIRQ(hw.IODeviceBase) }},
		{"guest-timer", metrics.ExitPreemptTimer, cost.ExitPreemptTimer,
			func(busy, _ *VCPU) { busy.onGuestTimer(busy.Now()) }},
		{"timer-steal", metrics.ExitTimerSteal, cost.ExitExternalIRQ,
			func(_, other *VCPU) { other.onGuestTimer(other.Now()) }},
		{"top-up-timer", metrics.ExitPreemptTimer, cost.ExitPreemptTimer,
			func(busy, _ *VCPU) { busy.onTopUpTimer(busy.Now()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine, busy, other := newSharedPCPURig(t)
			p := busy.pcpu
			for !p.inGuest(busy) || other.state == VCPURunning {
				if !engine.Step() {
					t.Fatal("engine drained before the busy vCPU ran guest code")
				}
			}
			cnt := busy.vm.counters
			// fireAndCount fires the source once and checks the busy VM
			// was charged want exits, all of tc.reason at tc.cost.
			fireAndCount := func(phase string, want uint64) {
				t.Helper()
				exits, costs, overhead := cnt.Exits, cnt.ExitCost[tc.reason].Count(), cnt.HostOverhead
				tc.fire(busy, other)
				for r := range cnt.Exits {
					got, w := cnt.Exits[r]-exits[r], uint64(0)
					if metrics.ExitReason(r) == tc.reason {
						w = want
					}
					if got != w {
						t.Fatalf("%s: %d %v exits charged, want %d", phase, got, metrics.ExitReason(r), w)
					}
				}
				if got := cnt.ExitCost[tc.reason].Count() - costs; got != want {
					t.Fatalf("%s: %d %v exit costs observed, want %d", phase, got, tc.reason, want)
				}
				if got := cnt.HostOverhead - overhead; got != sim.Time(want)*tc.cost {
					t.Fatalf("%s: host overhead grew by %v, want %v", phase, got, sim.Time(want)*tc.cost)
				}
			}

			fireAndCount("in guest code", 1)
			if p.current != busy || p.phase != phaseIRQ {
				t.Fatal("premise: the pCPU should be in the interrupt exit for the busy vCPU")
			}
			fireAndCount("in the interrupt exit window", 0)

			// A host-handled exit (the periodic tick's MSR write) also runs
			// in host context.
			for p.current != busy || p.phase != phaseExit && p.phase != phaseHLT {
				if !engine.Step() {
					t.Fatal("engine drained before the busy vCPU took an atomic exit")
				}
			}
			fireAndCount("in a "+busy.gcpu.Issued().Kind.String()+" exit window", 0)
		})
	}
}

// newSharedPCPURig builds two 1-vCPU VMs pinned to pCPU 0: "busy" computes
// for a second, "other" has no work, so it halts and leaves the pCPU to busy.
func newSharedPCPURig(t *testing.T) (*sim.Engine, *VCPU, *VCPU) {
	t.Helper()
	engine := sim.NewEngine(42)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	host, err := NewHost(engine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	gcfg.Mode = core.Periodic
	busy, err := host.NewVM("busy", gcfg, []hw.CPUID{0})
	if err != nil {
		t.Fatal(err)
	}
	other, err := host.NewVM("other", gcfg, []hw.CPUID{0})
	if err != nil {
		t.Fatal(err)
	}
	busy.Kernel().Spawn("w", 0, guest.Steps(guest.Compute(sim.Second)))
	busy.Start()
	other.Start()
	return engine, busy.VCPUs()[0], other.VCPUs()[0]
}
