package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/kvm"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/workload"
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
	var held float64
	for i := 0; i < b.N; i++ {
		held = w2SessionHeldKiB(b)
	}
	b.ReportMetric(held, "held-KiB")
}

// sessionHeldCeilingKiB bounds what the W2 session holds: 162 KiB measured
// (2-vCPU Xeon, Go 1.24) once the guest segment pool, the vCPU segment
// queues and the engine node slabs were sized by use, plus 5%. With 64-entry
// slabs and queues the session held 214 KiB.
const sessionHeldCeilingKiB = 170

// TestSessionRetainedHeapCeiling holds the pooled world's memory to what
// its runs use: the session BenchmarkSessionRetainedHeap measures must keep
// no more than sessionHeldCeilingKiB live.
func TestSessionRetainedHeapCeiling(t *testing.T) {
	held := w2SessionHeldKiB(t)
	t.Logf("W2 session holds %.1f KiB", held)
	if held > sessionHeldCeilingKiB {
		t.Errorf("W2 session holds %.1f KiB after one cold and three warm ops, want at most %d", held, sessionHeldCeilingKiB)
	}
}

// w2SessionHeldKiB runs one cold and three warm ops of Table 1's W2 host
// through a new Session, keeps the session in retainedSession, and returns
// the live heap it holds, in KiB.
func w2SessionHeldKiB(tb testing.TB) float64 {
	placement := make([]hw.CPUID, 16)
	for i := range placement {
		placement[i] = hw.CPUID(i)
	}
	sc := Scenario{Name: "w2", Topology: hw.SmallTopology(), SchedPolicy: sched.FIFO, Duration: sim.Second}
	for n := 0; n < 4; n++ {
		sc.VMs = append(sc.VMs, VMSpec{Name: fmt.Sprintf("vm%d", n), Mode: core.Periodic, Placement: placement})
	}
	retainedSession = nil
	before := liveHeap()
	s := NewSession()
	var res ScenarioResult
	for op := uint64(0); op < 4; op++ {
		if err := s.RunScenarioInto(sc, 1+op, nil, &res); err != nil {
			tb.Fatal(err)
		}
	}
	retainedSession = s
	return float64(int64(liveHeap())-int64(before)) / 1024
}

// liveHeap returns the heap still allocated after a full collection. It
// collects twice: the first collection only moves sync.Pool contents to
// their victim caches, and a reading that still counts them drops by what
// the pools held (36 KiB of the W2 session's 162 when its test ran alone).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// shardFleetRunAllocs bounds a warm Session run of the io-lanes fleet:
// ShardFleetScenario at scale 0.05 with 16 VMs on two shards. Its pooled
// world keeps the VMs with their devices and the fio programs of their
// retired tasks, the host with its IPI streams and bound delivery hook, the
// coordinator with its shard worker handles, and the world shell, so a
// warm run allocates nothing: 0 measured (2-vCPU Xeon, Go 1.24), plus a
// margin of 2. It allocated 27 while each run built its 16 fio programs
// and its two shard workers, and 270 while devices, streams and the shell
// were built anew each run as well.
const shardFleetRunAllocs = 2

// TestShardFleetSessionAllocs holds the io-lanes fleet's warm Session runs
// to shardFleetRunAllocs allocations each.
func TestShardFleetSessionAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.Quantum = sim.Millisecond
	opts.Shards = 2
	sc, err := ShardFleetScenario(opts, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	var res ScenarioResult
	seed := uint64(1)
	run := func() {
		if err := s.RunScenarioInto(sc, seed, nil, &res); err != nil {
			t.Fatal(err)
		}
		seed++
	}
	run() // cold: builds and pools the world
	allocs := testing.AllocsPerRun(8, run)
	t.Logf("%.1f allocations per warm shard-fleet run", allocs)
	if allocs > shardFleetRunAllocs {
		t.Fatalf("a warm shard-fleet Session run allocates %.1f, want at most %d", allocs, shardFleetRunAllocs)
	}
}

// syncWakeupsRunAllocs bounds a warm Session run shaped like the
// sync-wakeups benchmark workload; see TestSyncWakeupsSessionAllocs.
const syncWakeupsRunAllocs = 1

// TestSyncWakeupsSessionAllocs holds a warm Session run of Table 1's
// consolidation host running the sync benchmark to syncWakeupsRunAllocs
// allocations: four 16-vCPU paratick VMs pinned 4:1 onto 16 pCPUs under
// the fair scheduler, each spawning 16 sync threads that rendezvous in
// pairs 8000 times a second for one simulated second. A recycled kernel
// hands each respawned thread the program of the task it reuses, so a
// warm run builds no programs (it built one slab per VM before).
func TestSyncWakeupsSessionAllocs(t *testing.T) {
	placement := make([]hw.CPUID, 16)
	for i := range placement {
		placement[i] = hw.CPUID(i)
	}
	spawn := func(vm *kvm.VM) error {
		b := workload.DefaultSyncBench()
		b.SyncsPerSec = 8000
		b.Duration = sim.Second
		return b.Spawn(vm.Kernel())
	}
	sc := Scenario{Name: "sync-wakeups", Topology: hw.SmallTopology(), SchedPolicy: sched.Fair, Duration: sim.Second}
	for n := 0; n < 4; n++ {
		sc.VMs = append(sc.VMs, VMSpec{Name: fmt.Sprintf("vm%d", n), Mode: core.Paratick, Placement: placement,
			TaskHint: 16, Setup: spawn})
	}
	s := NewSession()
	var res ScenarioResult
	seed := uint64(1)
	run := func() {
		if err := s.RunScenarioInto(sc, seed, nil, &res); err != nil {
			t.Fatal(err)
		}
		seed++
	}
	run() // cold: builds and pools the world
	allocs := testing.AllocsPerRun(8, run)
	t.Logf("%.1f allocations per warm sync-wakeups run", allocs)
	if allocs > syncWakeupsRunAllocs {
		t.Fatalf("a warm sync-wakeups Session run allocates %.1f, want at most %d", allocs, syncWakeupsRunAllocs)
	}
}
