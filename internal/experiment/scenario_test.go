package experiment

import (
	"fmt"
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/sched"
	"paratick/internal/sim"
)

func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{Name: "x"}).Validate(); err == nil {
		t.Error("scenario with no VMs accepted")
	}
	s := Scenario{Name: "x", VMs: []VMSpec{{Name: "a", VCPUs: 1}}}
	if err := s.Validate(); err == nil {
		t.Error("scenario with no workload and no duration accepted")
	}
	s = Scenario{Name: "x", Duration: sim.Second, VMs: []VMSpec{{Name: "a"}}}
	if err := s.Validate(); err == nil {
		t.Error("VM with neither vCPUs nor placement accepted")
	}
	// A negative duration used to run silently to maxSimTime, a longer one
	// ran past the cap Duration-0 runs stop at, a negative probe was
	// silently ignored, and a 1 GHz host tick (a 1 ns period) did not
	// finish.
	for _, s := range []Scenario{
		{Name: "negative-duration", Duration: -sim.Second},
		{Name: "past-cap", Duration: maxSimTime + 1},
		{Name: "negative-probe", Duration: sim.Second, SnapshotProbe: -sim.Millisecond},
		{Name: "host-hz-above-max", Duration: sim.Second, HostHz: maxTickHz + 1},
		{Name: "host-hz-1GHz", Duration: sim.Second, HostHz: 1_000_000_000},
		{Name: "host-hz-negative", Duration: sim.Second, HostHz: -1},
	} {
		s.VMs = []VMSpec{{Name: "a", VCPUs: 1, Workload: true}}
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", s.Name)
		}
	}
	for _, hz := range []int{-1, maxTickHz + 1} {
		s := Scenario{Name: "guest-hz", Duration: sim.Second, VMs: []VMSpec{{Name: "a", VCPUs: 1, GuestHz: hz}}}
		if err := s.Validate(); err == nil {
			t.Errorf("guest tick rate %d accepted", hz)
		}
	}
	// The §4.1 ablation's 1000 Hz guest is the largest legal rate.
	for _, s := range []Scenario{
		{Name: "guest-hz-max", Duration: sim.Second, VMs: []VMSpec{{Name: "a", VCPUs: 1, GuestHz: maxTickHz}}},
		{Name: "host-hz-max", Duration: sim.Second, HostHz: maxTickHz, VMs: []VMSpec{{Name: "a", VCPUs: 1}}},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s refused: %v", s.Name, err)
		}
	}
	s = Scenario{Name: "at-cap", Duration: maxSimTime, VMs: []VMSpec{{Name: "a", VCPUs: 1}}}
	if err := s.Validate(); err != nil {
		t.Errorf("duration at the cap refused: %v", err)
	}
}

// spinFleet declares nVMs identical VMs, every vCPU pinned to the same two
// pCPUs and spinning for the whole run — an nVMs:1 overcommit with no
// blocking, the worst case for scheduler fairness.
func spinFleet(policy sched.Kind, dur sim.Time, nVMs int) Scenario {
	pin := []hw.CPUID{0, 1}
	s := Scenario{
		Name:        fmt.Sprintf("invariant/spin/%s", policy),
		Topology:    hw.Topology{Sockets: 1, CPUsPerSocket: 2, CrossSocketTax: 1.35},
		SchedPolicy: policy,
		Duration:    dur,
	}
	for n := 0; n < nVMs; n++ {
		s.VMs = append(s.VMs, VMSpec{
			Name: fmt.Sprintf("vm%d", n), Mode: core.DynticksIdle, Placement: pin,
			Setup: func(vm *kvm.VM) error {
				for i := range pin {
					vm.Kernel().Spawn(fmt.Sprintf("hog%d", i), i,
						guest.Steps(guest.Compute(2*dur)))
				}
				return nil
			},
		})
	}
	return s
}

// TestFairNoStarvation is the sched.Fair liveness invariant: with identical
// spinning VMs at 2:1 overcommit, no VM is starved below half its fair share
// of useful compute over the run.
func TestFairNoStarvation(t *testing.T) {
	const dur = 200 * sim.Millisecond
	const nVMs = 2
	sr, err := RunScenario(spinFleet(sched.Fair, dur, nVMs), 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2 pCPUs × dur of capacity split across nVMs identical VMs.
	fairShare := 2 * dur / nVMs
	for _, res := range sr.Results {
		got := res.Counters.GuestUseful
		if got < fairShare/2 {
			t.Errorf("%s: useful compute %v below half its fair share (%v)",
				res.Name, got, fairShare)
		}
		if got > 2*dur {
			t.Errorf("%s: useful compute %v exceeds machine capacity", res.Name, got)
		}
	}
}

// workFleet is spinFleet with a fixed amount of work per hog instead of a
// fixed duration: the scenario runs to completion, so total useful compute
// is an invariant the scheduling policy must not change.
func workFleet(policy sched.Kind, work sim.Time, nVMs int) Scenario {
	pin := []hw.CPUID{0, 1}
	s := Scenario{
		Name:        fmt.Sprintf("invariant/work/%s", policy),
		Topology:    hw.Topology{Sockets: 1, CPUsPerSocket: 2, CrossSocketTax: 1.35},
		SchedPolicy: policy,
	}
	for n := 0; n < nVMs; n++ {
		s.VMs = append(s.VMs, VMSpec{
			Name: fmt.Sprintf("vm%d", n), Mode: core.DynticksIdle, Placement: pin,
			Workload: true,
			Setup: func(vm *kvm.VM) error {
				for i := range pin {
					vm.Kernel().Spawn(fmt.Sprintf("hog%d", i), i,
						guest.Steps(guest.Compute(work)))
				}
				return nil
			},
		})
	}
	return s
}

// TestBusyConservationAcrossPolicies is the sched conservation invariant:
// a run-to-completion workload performs exactly the same total useful
// compute under FIFO and Fair — policies reorder work, they must not create
// or destroy it.
func TestBusyConservationAcrossPolicies(t *testing.T) {
	const work = 25 * sim.Millisecond
	const nVMs = 2
	total := func(policy sched.Kind) sim.Time {
		t.Helper()
		sr, err := RunScenario(workFleet(policy, work, nVMs), 1)
		if err != nil {
			t.Fatal(err)
		}
		var sum sim.Time
		for _, res := range sr.Results {
			sum += res.Counters.GuestUseful
		}
		return sum
	}
	fifo, fair := total(sched.FIFO), total(sched.Fair)
	want := sim.Time(nVMs) * 2 * work // nVMs VMs × 2 hogs × work each
	if fifo != want {
		t.Errorf("FIFO useful compute = %v, want %v", fifo, want)
	}
	if fair != want {
		t.Errorf("Fair useful compute = %v, want %v", fair, want)
	}
}
