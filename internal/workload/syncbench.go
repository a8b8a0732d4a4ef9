package workload

import (
	"fmt"

	"paratick/internal/guest"
	"paratick/internal/sim"
)

// SyncBench is the §3.3 microbenchmark: N threads synchronizing through
// blocking synchronization at a fixed aggregate rate (W3: 16 threads,
// 1000 synchronizations per second). Threads rendezvous in pairs: each
// synchronization is a two-party barrier, so the first arrival blocks
// (idling its vCPU) and the second wakes it — one idle entry/exit pair per
// synchronization event, exactly the accounting the paper's Table 1 uses
// (2 tick-management VM exits per sync under a tickless kernel).
type SyncBench struct {
	Threads int
	// SyncsPerSec is the aggregate synchronization (rendezvous) rate
	// across all pairs.
	SyncsPerSec float64
	// CSLen is the post-rendezvous critical-section length.
	CSLen sim.Time
	// Duration bounds the benchmark.
	Duration sim.Time
}

// DefaultSyncBench returns W3: 16 threads, 1000 syncs/s.
func DefaultSyncBench() SyncBench {
	return SyncBench{Threads: 16, SyncsPerSec: 1000, CSLen: 5 * sim.Microsecond, Duration: sim.Second}
}

// Validate checks parameters.
func (s SyncBench) Validate() error {
	if s.Threads <= 0 || s.Threads > maxThreads {
		return fmt.Errorf("workload: syncbench needs 1 to %d threads, got %d", maxThreads, s.Threads)
	}
	if s.Threads%2 != 0 {
		return fmt.Errorf("workload: syncbench pairs threads; need an even count, got %d", s.Threads)
	}
	// NaN, zero, negative and infinite rates all fail this range too.
	if iv := s.meanInterval(); !(iv >= 1 && iv <= float64(maxSyncInterval)) {
		return fmt.Errorf("workload: syncbench sync rate %v gives a mean interval of %g ns per pair, want 1 ns to %v",
			s.SyncsPerSec, iv, maxSyncInterval)
	}
	if s.CSLen <= 0 || s.Duration <= 0 {
		return fmt.Errorf("workload: syncbench needs positive CSLen and Duration")
	}
	return nil
}

// maxSyncInterval is the longest mean interval between one pair's
// rendezvous that Validate accepts: the 1000 s a workload run is capped at.
const maxSyncInterval = 1000 * sim.Second

// meanInterval is the mean time in ns between one pair's rendezvous at the
// aggregate rate SyncsPerSec.
func (s SyncBench) meanInterval() float64 {
	pairs := float64(s.Threads) / 2
	return float64(sim.Second) * pairs / s.SyncsPerSec
}

type syncProgram struct {
	//snap:skip immutable benchmark spec from the scenario
	b SyncBench
	//snap:skip shared-object wiring, re-bound when the program is rebuilt
	meet *guest.Barrier
	//snap:skip fixed at construction from the benchmark duration
	until sim.Time
	phase int
	done  bool
	left  bool
}

func (p *syncProgram) Next(ctx *guest.StepCtx) guest.Step {
	switch p.phase {
	case 0: // compute until the next rendezvous
		if p.done || ctx.Now >= p.until {
			if !p.left {
				p.left = true
				return guest.LeaveBarrier(p.meet)
			}
			return guest.Done()
		}
		p.phase = 1
		return guest.Compute(ctx.Rand.Jitter(sim.Time(p.b.meanInterval()), 0.3))
	case 1: // rendezvous: first arrival blocks, partner releases it
		p.phase = 2
		return guest.JoinBarrier(p.meet)
	default: // brief shared work, then back to compute
		p.phase = 0
		return guest.Compute(ctx.Rand.Jitter(p.b.CSLen, 0.3))
	}
}

// Spawn creates the benchmark's tasks, pairing neighbours (2i, 2i+1) and
// placing one task per vCPU round-robin.
func (s SyncBench) Spawn(k *guest.Kernel) error {
	if err := s.Validate(); err != nil {
		return err
	}
	nv := len(k.VCPUs())
	if nv == 0 {
		return fmt.Errorf("workload: syncbench needs vCPUs")
	}
	until := k.Now() + s.Duration
	// Programs come from the recycled kernel's retired tasks, or else one
	// slab, and names are pre-formatted: respawning the benchmark into a
	// recycled VM allocates nothing, and into a fresh one a single slab.
	var slab []syncProgram
	for pair := 0; pair < s.Threads/2; pair++ {
		meet := k.NewBarrier(indexedName(syncPairNames, "sync.pair", "", pair), 2)
		for j := 0; j < 2; j++ {
			i := pair*2 + j
			prog := guest.NewProgram(k, &slab, s.Threads-i)
			*prog = syncProgram{b: s, meet: meet, until: until}
			k.Spawn(indexedName(syncTaskNames, "sync.", "", i), i%nv, prog)
		}
	}
	return nil
}
