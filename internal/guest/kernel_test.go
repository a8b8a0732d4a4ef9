package guest

import (
	"testing"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

// shellA and shellB are two program types a workload could spawn.
type shellA struct{ n int }

func (p *shellA) Next(*StepCtx) Step { return Done() }

type shellB struct{ n int }

func (p *shellB) Next(*StepCtx) Step { return Done() }

// TestNewProgramReusesRetiredShells pins NewProgram's contract: a fresh
// kernel hands out slots of one slab sized for the spawn; a recycled
// kernel hands each respawned task the zeroed program of the task Spawn
// reuses; and a request for another program type misses those shells and
// falls back to a slab.
func TestNewProgramReusesRetiredShells(t *testing.T) {
	e, k := newTestKernel(t, core.DynticksIdle, 1)
	reset := func() {
		t.Helper()
		if err := k.Reset(e, hw.DefaultCostModel(), k.cfg, &metrics.Counters{}); err != nil {
			t.Fatal(err)
		}
	}
	spawnA := func() []*shellA {
		var slab []shellA
		var got []*shellA
		for i := 0; i < 3; i++ {
			p := NewProgram(k, &slab, 3-i)
			if p.n != 0 {
				t.Fatalf("program %d handed out with n=%d, want zeroed", i, p.n)
			}
			p.n = i + 1
			k.Spawn("a", 0, p)
			got = append(got, p)
		}
		return got
	}

	fresh := spawnA()
	for i := 1; i < len(fresh); i++ {
		if fresh[i] == fresh[i-1] {
			t.Fatalf("a fresh kernel handed program %d out twice", i)
		}
	}

	reset()
	recycled := spawnA()
	// Spawn reuses retired tasks last-spawned first, and each keeps its
	// program.
	for i, p := range recycled {
		if want := fresh[len(fresh)-1-i]; p != want {
			t.Fatalf("respawned task %d got program %p, want the retired shell %p", i, p, want)
		}
	}

	reset()
	var slab []shellB
	b := NewProgram(k, &slab, 2)
	if len(slab) != 1 || cap(slab) != 1 {
		t.Fatalf("a type miss left a slab of len %d cap %d, want one slot for the second program", len(slab), cap(slab))
	}
	k.Spawn("b", 0, b)
	b2 := NewProgram(k, &slab, 1)
	if b2 == b || len(slab) != 0 {
		t.Fatal("the second program did not take the slab's remaining slot")
	}
}

// TestAddVCPUsCarvesQueuesApart pins the carving of AddVCPUs' backing
// arrays: a vCPU whose run queue or segment queue outgrows its share
// reallocates on its own, and its neighbour's queues keep their entries.
func TestAddVCPUsCarvesQueuesApart(t *testing.T) {
	k, err := NewKernel(sim.NewEngine(1), hw.DefaultCostModel(), DefaultConfig(), &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	vs := k.AddVCPUs(2)
	neighbour := k.Spawn("neighbour", 1, Steps(Compute(sim.Microsecond)))
	for i, n := 0, 3*cap(vs[0].runq); i < n; i++ {
		k.Spawn("crowd", 0, Steps(Compute(sim.Microsecond)))
	}
	if len(vs[1].runq) != 1 || vs[1].runq[0] != neighbour {
		t.Fatalf("vCPU 1's run queue holds %d tasks after vCPU 0's outgrew its share, want only its own", len(vs[1].runq))
	}
	vs[1].addKernelSeg(sim.Microsecond, "neighbour")
	seg := vs[1].queue[0]
	for i := 0; i < 3*vcpuQueueCap; i++ {
		vs[0].addKernelSeg(sim.Microsecond, "crowd")
	}
	if len(vs[1].queue) != 1 || vs[1].queue[0] != seg {
		t.Fatalf("vCPU 1's segment queue holds %d segments after vCPU 0's outgrew its share, want only its own", len(vs[1].queue))
	}
}
