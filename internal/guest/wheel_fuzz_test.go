package guest

import (
	"testing"

	"paratick/internal/sim"
)

// FuzzTimerWheel drives the wheel with a byte-coded operation script —
// adds, cancels, and advances — and checks the structural invariants after
// every operation: the count matches live timers, no timer fires before its
// deadline, and every surviving timer fires exactly once by the horizon.
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{0x10, 0x80, 0x20, 0xFF, 0x01})
	f.Add([]byte{0x00, 0x00, 0x00})
	f.Add([]byte{0xA0, 0x33, 0x11, 0x55, 0x90, 0x04})
	f.Fuzz(func(t *testing.T, script []byte) {
		w := NewTimerWheel(sim.Millisecond)
		type rec struct {
			tm       *SoftTimer
			deadline sim.Time
			fired    int
			canceled bool
		}
		var recs []*rec
		now := sim.Time(0)
		live := 0
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%3, sim.Time(script[i+1])
			switch op {
			case 0: // add a timer up to 255ms out
				r := &rec{deadline: now + (arg+1)*sim.Millisecond}
				r.tm = &SoftTimer{Deadline: r.deadline, Fire: func(at sim.Time) {
					r.fired++
					if at < r.deadline {
						t.Fatalf("timer fired at %v before deadline %v", at, r.deadline)
					}
				}}
				w.Add(r.tm)
				recs = append(recs, r)
				live++
			case 1: // cancel a random live timer
				if len(recs) == 0 {
					continue
				}
				r := recs[int(arg)%len(recs)]
				if w.Cancel(r.tm) {
					r.canceled = true
					live--
				}
			case 2: // advance up to 255ms
				now += arg * sim.Millisecond
				fired := w.AdvanceTo(now)
				live -= fired
			}
			if w.Len() != live {
				t.Fatalf("wheel count %d, expected %d live", w.Len(), live)
			}
		}
		// Drain everything and verify exactly-once semantics.
		w.AdvanceTo(now + 600*sim.Millisecond)
		for i, r := range recs {
			want := 1
			if r.canceled {
				want = 0
			}
			if r.fired != want {
				t.Fatalf("timer %d fired %d times, want %d (canceled=%v)",
					i, r.fired, want, r.canceled)
			}
		}
		if w.Len() != 0 {
			t.Fatalf("wheel retains %d timers past the horizon", w.Len())
		}
	})
}

// FuzzTimerWheelDifferential drives the wheel and the naive sorted-list
// reference model (wheel_ref_test.go) from the same fuzzed op script — adds
// at every deadline scale up to millions of jiffies out and at/near
// sim.Forever, cancels, and advances from sub-jiffy steps to sparse-idle
// fast-forwards — and fails on any divergence in fire times, fire order,
// pending counts, or NextExpiry. Each script runs at a 1 ms jiffy and at a
// 1 ns jiffy, whose near-Forever timers sit at the wheel's top levels.
func FuzzTimerWheelDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x05, 0x20})
	f.Add([]byte{2, 255, 2, 128, 7, 255, 7, 255})                   // beyond-horizon + huge advances
	f.Add([]byte{3, 2, 3, 3, 3, 0, 6, 50})                          // Forever / near-Forever / past deadlines
	f.Add([]byte{1, 9, 1, 9, 0, 3, 0, 3, 6, 40})                    // same-jiffy deadline ordering
	f.Add([]byte{0, 10, 4, 0, 0, 20, 4, 1, 5, 90, 6, 10})           // cancel churn
	f.Add([]byte{1, 64, 1, 65, 1, 127, 6, 31, 6, 31, 6, 31, 6, 31}) // cascade boundaries
	f.Fuzz(func(t *testing.T, script []byte) {
		runDifferentialScript(t, sim.Millisecond, script)
		runDifferentialScript(t, sim.Nanosecond, script)
	})
}
