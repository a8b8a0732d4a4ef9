package experiment

import (
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/sim"
)

// idleVCPU is a guest vCPU that sits in the idle loop with no soft timer,
// no RCU work and no component needing the tick: the state of every Table 1
// W1/W2 vCPU once it boots. It counts deadline-timer writes, each of which
// is one MSR-write exit in the simulator.
type idleVCPU struct {
	deadline sim.Time
	writes   uint64
}

func (v *idleVCPU) Now() sim.Time                       { return 0 }
func (v *idleVCPU) TickPeriod() sim.Time                { return sim.PeriodFromHz(guest.DefaultConfig().TickHz) }
func (v *idleVCPU) SetTimer(deadline sim.Time)          { v.deadline = deadline; v.writes++ }
func (v *idleVCPU) TimerDeadline() sim.Time             { return v.deadline }
func (v *idleVCPU) RunTickWork()                        {}
func (v *idleVCPU) AddKernelWork(string)                {}
func (v *idleVCPU) NextSoftEvent() sim.Time             { return sim.Forever }
func (v *idleVCPU) TickRequired() bool                  { return false }
func (v *idleVCPU) Idle() bool                          { return true }
func (v *idleVCPU) Hypercall(core.HypercallKind, int64) {}

// idleTimerWrites is how many timer writes mode's policy makes on a vCPU
// that boots and enters idle with nothing pending: OnBoot, then the first
// OnIdleEnter. Nothing wakes such a vCPU again, so it is the vCPU's whole
// count for the run.
func idleTimerWrites(mode core.Mode) uint64 {
	v := &idleVCPU{deadline: sim.Forever}
	p := core.NewPolicy(mode, core.Options{})
	p.OnBoot(v)
	p.OnIdleEnter(v)
	return v.writes
}

// TestTable1IdleExitsMatchClosedForm checks the idle rows of Table 1
// against counts that share no code with the simulator: for W1 (one idle
// 16-vCPU VM) and W2 (four of them on the same 16 pCPUs), across seeds
// and scales.
//
//   - W1 periodic is one MSR-write exit per tick per vCPU: 16 × 250 Hz ×
//     duration, exactly.
//   - Dynticks pays each vCPU's boot-time arm and its first idle entry's
//     disarm, whatever the duration: idleTimerWrites derives that count
//     from internal/core's policy hooks.
//   - Paratick never writes the timer of an idle vCPU with nothing pending.
//   - W2 periodic runs four W1 fleets' ticks, plus the exits that contention
//     for the shared pCPUs adds, so it is at least four times W1.
func TestTable1IdleExitsMatchClosedForm(t *testing.T) {
	const vcpus = 16
	period := sim.PeriodFromHz(guest.DefaultConfig().TickHz)
	dynticks := idleTimerWrites(core.DynticksIdle)
	if dynticks == 0 {
		t.Fatal("dynticks policy makes no timer writes on boot and idle entry")
	}
	for _, scale := range []float64{0.01, 0.05, 0.1} {
		for seed := uint64(1); seed <= 3; seed++ {
			o := DefaultOptions()
			o.Scale = scale
			o.Seed = seed
			res, err := RunTable1(o)
			if err != nil {
				t.Fatal(err)
			}
			w1, w2 := res.Rows[0], res.Rows[1]
			if w1.Workload != "W1" || w2.Workload != "W2" {
				t.Fatalf("rows %s, %s; want W1, W2", w1.Workload, w2.Workload)
			}
			ticks := uint64(res.Duration / period)
			if want := vcpus * ticks; w1.SimPeriodic != want {
				t.Errorf("scale %v seed %d: W1 periodic %d exits, want %d vCPUs × %d ticks = %d",
					scale, seed, w1.SimPeriodic, vcpus, ticks, want)
			}
			for _, c := range []struct {
				row  Table1Row
				vms  uint64
				name string
			}{{w1, 1, "W1"}, {w2, 4, "W2"}} {
				if want := dynticks * c.vms * vcpus; c.row.SimTickless != want {
					t.Errorf("scale %v seed %d: %s dynticks %d exits, want %d per vCPU × %d vCPUs = %d",
						scale, seed, c.name, c.row.SimTickless, dynticks, c.vms*vcpus, want)
				}
				if c.row.SimParatick != 0 {
					t.Errorf("scale %v seed %d: %s paratick %d exits, want 0", scale, seed, c.name, c.row.SimParatick)
				}
			}
			if w2.SimPeriodic < 4*w1.SimPeriodic {
				t.Errorf("scale %v seed %d: W2 periodic %d exits, below 4 × W1's %d",
					scale, seed, w2.SimPeriodic, w1.SimPeriodic)
			}
		}
	}
}
