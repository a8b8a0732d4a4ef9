package guest

import (
	"testing"

	"paratick/internal/core"
	"paratick/internal/hw"
	"paratick/internal/metrics"
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
