package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/sched"
	"paratick/internal/sim"
)

// retainedSession keeps the session BenchmarkSessionRetainedHeap built last
// alive past the benchmark, so a heap profile written after it shows what
// the session holds.
var retainedSession *Session

// BenchmarkSessionRetainedHeap measures what a pooled world keeps between
// runs. Each iteration runs one cold and three warm ops of Table 1's W2
// host (four idle periodic-tick 16-vCPU VMs pinned 4:1 onto 16 pCPUs, one
// simulated second) through a new Session, and reports the live heap the
// session holds afterwards as held-KiB. With a heap profile, inuse_space
// breaks that down by allocation site:
//
//	go test -run xxx -bench SessionRetainedHeap -benchtime 1x \
//	    -memprofilerate 1 -memprofile mem.out ./internal/experiment
//	go tool pprof -sample_index=inuse_space -top mem.out
func BenchmarkSessionRetainedHeap(b *testing.B) {
	placement := make([]hw.CPUID, 16)
	for i := range placement {
		placement[i] = hw.CPUID(i)
	}
	sc := Scenario{Name: "w2", Topology: hw.SmallTopology(), SchedPolicy: sched.FIFO, Duration: sim.Second}
	for n := 0; n < 4; n++ {
		sc.VMs = append(sc.VMs, VMSpec{Name: fmt.Sprintf("vm%d", n), Mode: core.Periodic, Placement: placement})
	}
	var held float64
	for i := 0; i < b.N; i++ {
		retainedSession = nil
		before := liveHeap()
		s := NewSession()
		var res ScenarioResult
		for op := uint64(0); op < 4; op++ {
			if err := s.RunScenarioInto(sc, 1+op, nil, &res); err != nil {
				b.Fatal(err)
			}
		}
		retainedSession = s
		held = float64(int64(liveHeap()) - int64(before))
	}
	b.ReportMetric(held/1024, "held-KiB")
}

// liveHeap returns the heap still allocated after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
