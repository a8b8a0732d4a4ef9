// Package workload generates the benchmark behaviours of the paper's
// evaluation: behavioural profiles of the 13 PARSEC workloads (§6.1, §6.2),
// an fio-style block-I/O generator (§6.3), the §3.3 blocking-sync workload,
// and idle VMs. The profiles substitute for the real suites (which cannot
// run on a simulator): what matters for tick-management overhead is the
// *rate and structure* of compute, blocking synchronization, and I/O, which
// each profile parameterizes.
package workload

import (
	"fmt"

	"paratick/internal/guest"
	"paratick/internal/iodev"
	"paratick/internal/sim"
)

// ParsecProfile characterizes one PARSEC benchmark's interaction pattern.
// Values are behavioural calibrations (per-thread rates), chosen to span
// the suite's published spectrum: from embarrassingly parallel compute
// (swaptions, blackscholes) through barrier-phased solvers (streamcluster,
// fluidanimate) to I/O-heavy pipelines (dedup, ferret, vips, x264).
type ParsecProfile struct {
	Name string
	// Work is the total CPU time the benchmark consumes (sequential mode),
	// before scaling.
	Work sim.Time
	// IOOpsPerSec is the file-I/O rate while running (input/output
	// streaming); ops block like the paper's sync reads.
	IOOpsPerSec float64
	// IOBytes is the transfer size per I/O op.
	IOBytes int
	// SyncPerSec is the per-thread blocking-sync rate in parallel mode.
	SyncPerSec float64
	// CSLen is the critical-section length.
	CSLen sim.Time
	// BarrierIters inserts a phase barrier every N sync iterations in
	// parallel mode (0 = no barriers).
	BarrierIters int
	// ParallelOverhead inflates total work in parallel mode (communication
	// and redundant computation), as a fraction of Work.
	ParallelOverhead float64
}

// Profiles returns the 13 PARSEC benchmarks in the paper's Fig. 4/5 order.
func Profiles() []ParsecProfile {
	ms := sim.Millisecond
	us := sim.Microsecond
	return []ParsecProfile{
		{Name: "blackscholes", Work: 600 * ms, IOOpsPerSec: 30, IOBytes: 64 << 10,
			SyncPerSec: 300, CSLen: 2 * us, BarrierIters: 50, ParallelOverhead: 0.02},
		{Name: "bodytrack", Work: 500 * ms, IOOpsPerSec: 3000, IOBytes: 16 << 10,
			SyncPerSec: 18000, CSLen: 3 * us, BarrierIters: 2, ParallelOverhead: 0.08},
		{Name: "canneal", Work: 700 * ms, IOOpsPerSec: 800, IOBytes: 32 << 10,
			SyncPerSec: 25000, CSLen: 2 * us, BarrierIters: 3, ParallelOverhead: 0.10},
		{Name: "dedup", Work: 350 * ms, IOOpsPerSec: 20000, IOBytes: 16 << 10,
			SyncPerSec: 35000, CSLen: 4 * us, BarrierIters: 2, ParallelOverhead: 0.12},
		{Name: "facesim", Work: 800 * ms, IOOpsPerSec: 150, IOBytes: 64 << 10,
			SyncPerSec: 9000, CSLen: 6 * us, BarrierIters: 3, ParallelOverhead: 0.06},
		{Name: "ferret", Work: 450 * ms, IOOpsPerSec: 16000, IOBytes: 16 << 10,
			SyncPerSec: 30000, CSLen: 4 * us, BarrierIters: 2, ParallelOverhead: 0.10},
		{Name: "fluidanimate", Work: 650 * ms, IOOpsPerSec: 80, IOBytes: 32 << 10,
			SyncPerSec: 40000, CSLen: 2 * us, BarrierIters: 1, ParallelOverhead: 0.09},
		{Name: "freqmine", Work: 750 * ms, IOOpsPerSec: 200, IOBytes: 32 << 10,
			SyncPerSec: 1500, CSLen: 4 * us, BarrierIters: 0, ParallelOverhead: 0.04},
		{Name: "raytrace", Work: 700 * ms, IOOpsPerSec: 60, IOBytes: 64 << 10,
			SyncPerSec: 2500, CSLen: 3 * us, BarrierIters: 0, ParallelOverhead: 0.05},
		{Name: "streamcluster", Work: 600 * ms, IOOpsPerSec: 120, IOBytes: 16 << 10,
			SyncPerSec: 15000, CSLen: 3 * us, BarrierIters: 2, ParallelOverhead: 0.11},
		{Name: "swaptions", Work: 650 * ms, IOOpsPerSec: 15, IOBytes: 8 << 10,
			SyncPerSec: 200, CSLen: 2 * us, BarrierIters: 0, ParallelOverhead: 0.01},
		{Name: "vips", Work: 450 * ms, IOOpsPerSec: 10000, IOBytes: 32 << 10,
			SyncPerSec: 22000, CSLen: 3 * us, BarrierIters: 2, ParallelOverhead: 0.07},
		{Name: "x264", Work: 500 * ms, IOOpsPerSec: 8000, IOBytes: 64 << 10,
			SyncPerSec: 20000, CSLen: 4 * us, BarrierIters: 2, ParallelOverhead: 0.08},
	}
}

// ProfileByName finds a profile.
func ProfileByName(name string) (ParsecProfile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return ParsecProfile{}, fmt.Errorf("workload: unknown PARSEC benchmark %q", name)
}

// Validate checks profile ranges.
func (p ParsecProfile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without a name")
	}
	if p.Work <= 0 {
		return fmt.Errorf("workload: %s: Work must be positive", p.Name)
	}
	if p.IOOpsPerSec < 0 || p.SyncPerSec < 0 || p.ParallelOverhead < 0 {
		return fmt.Errorf("workload: %s: negative rate", p.Name)
	}
	if p.IOOpsPerSec > 0 && p.IOBytes <= 0 {
		return fmt.Errorf("workload: %s: I/O without a transfer size", p.Name)
	}
	if p.SyncPerSec > 0 && p.CSLen <= 0 {
		return fmt.Errorf("workload: %s: sync without a critical-section length", p.Name)
	}
	if p.BarrierIters < 0 {
		return fmt.Errorf("workload: %s: negative BarrierIters", p.Name)
	}
	return nil
}

// seqProgram alternates compute intervals with blocking file I/O, the way
// PARSEC benchmarks stream their input sets (§6.1 observes that even
// "sequential" runs vary widely in how much they benefit — the I/O rate is
// the driver).
type seqProgram struct {
	//snap:skip immutable benchmark profile from the scenario
	p ParsecProfile
	//snap:skip device wiring, re-bound when the program is rebuilt
	dev       *iodev.Device
	remaining sim.Time
	ioPending bool
	ioSeq     bool
}

// SequentialProgram builds the benchmark's 1-thread program. The device
// may be nil when the profile performs no I/O; scale multiplies the total
// work (shorter experiments).
func (p ParsecProfile) SequentialProgram(dev *iodev.Device, scale float64) (guest.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: %s: scale must be positive, got %v", p.Name, scale)
	}
	if p.IOOpsPerSec > 0 && dev == nil {
		return nil, fmt.Errorf("workload: %s: profile performs I/O but no device given", p.Name)
	}
	return &seqProgram{
		p:         p,
		dev:       dev,
		remaining: sim.Time(float64(p.Work) * scale),
	}, nil
}

func (s *seqProgram) Next(ctx *guest.StepCtx) guest.Step {
	if s.ioPending {
		s.ioPending = false
		// Alternate sequential streaming with occasional random access.
		s.ioSeq = !s.ioSeq || ctx.Rand.Bool(0.7)
		return guest.Read(s.dev, s.p.IOBytes, s.ioSeq)
	}
	if s.remaining <= 0 {
		return guest.Done()
	}
	chunk := s.remaining
	if s.p.IOOpsPerSec > 0 {
		interval := sim.Time(float64(sim.Second) / s.p.IOOpsPerSec)
		chunk = ctx.Rand.Exp(interval)
		if chunk > s.remaining {
			chunk = s.remaining
		}
		s.ioPending = true
	}
	s.remaining -= chunk
	return guest.Compute(chunk)
}

// parProgram is one thread of the parallel benchmark: compute between
// synchronization points, contended critical sections through a shared
// blocking lock, periodic phase barriers, and a thread 0 that also
// performs the benchmark's I/O.
type parProgram struct {
	//snap:skip immutable benchmark profile from the scenario
	p ParsecProfile
	//snap:skip device wiring, re-bound when the program is rebuilt
	dev   *iodev.Device
	locks []*guest.Lock
	lock  *guest.Lock // lock taken in the current iteration
	//snap:skip shared-object wiring, re-bound when the program is rebuilt
	barrier   *guest.Barrier
	remaining sim.Time
	iter      int
	phase     int // 0 compute, 1 in-CS, 2 io
	//snap:skip immutable thread-role flag fixed at program construction
	doIO bool
	left bool // has detached from the barrier
}

// ParallelArtifacts holds the shared objects of one parallel run.
type ParallelArtifacts struct {
	// Locks are the contention stripes: real PARSEC workloads synchronize
	// on many fine-grained locks, so contention per lock stays roughly
	// constant as threads scale (one stripe per ~4 threads).
	Locks   []*guest.Lock
	Barrier *guest.Barrier
}

// maxThreads is the most tasks one benchmark may spawn: far above the
// paper's 80-CPU host, and low enough that a thread count read from a
// command line cannot make a run allocate without bound.
const maxThreads = 4096

// SpawnParallel spawns `threads` tasks (one per vCPU index modulo the vCPU
// count) running the benchmark with total work Work×(1+ParallelOverhead),
// split evenly. Thread 0 additionally performs the benchmark's I/O.
func (p ParsecProfile) SpawnParallel(k *guest.Kernel, threads int, dev *iodev.Device, scale float64) (*ParallelArtifacts, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 || threads > maxThreads {
		return nil, fmt.Errorf("workload: %s: need 1 to %d threads, got %d", p.Name, maxThreads, threads)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("workload: %s: scale must be positive", p.Name)
	}
	if p.IOOpsPerSec > 0 && dev == nil {
		return nil, fmt.Errorf("workload: %s: profile performs I/O but no device given", p.Name)
	}
	nv := len(k.VCPUs())
	if nv == 0 {
		return nil, fmt.Errorf("workload: %s: kernel has no vCPUs", p.Name)
	}
	art := &ParallelArtifacts{}
	stripes := threads / 4
	if stripes < 1 {
		stripes = 1
	}
	// An unknown profile finds no table and formats its names.
	names := parsecNameTables[p.Name]
	for i := 0; i < stripes; i++ {
		art.Locks = append(art.Locks, k.NewLock(indexedName(names.locks, p.Name, ".lock", i)))
	}
	if p.BarrierIters > 0 {
		art.Barrier = k.NewBarrier(p.Name+".barrier", threads)
	}
	total := sim.Time(float64(p.Work) * (1 + p.ParallelOverhead) * scale)
	share := total / sim.Time(threads)
	var slab []parProgram
	for i := 0; i < threads; i++ {
		prog := guest.NewProgram(k, &slab, threads-i)
		*prog = parProgram{
			p:         p,
			dev:       dev,
			locks:     art.Locks,
			barrier:   art.Barrier,
			remaining: share,
			doIO:      i == 0 && p.IOOpsPerSec > 0,
		}
		k.Spawn(indexedName(names.tasks, p.Name, ".", i), i%nv, prog)
	}
	return art, nil
}

func (t *parProgram) Next(ctx *guest.StepCtx) guest.Step {
	switch t.phase {
	case 1: // inside the critical section: compute CSLen then release
		t.phase = 2
		return guest.Compute(ctx.Rand.Jitter(t.p.CSLen, 0.3))
	case 2:
		t.phase = 3
		return guest.Release(t.lock)
	case 3: // after the CS: maybe barrier / io, then back to compute
		t.phase = 0
		t.iter++
		if t.barrier != nil && t.p.BarrierIters > 0 && t.iter%t.p.BarrierIters == 0 {
			return guest.JoinBarrier(t.barrier)
		}
		if t.doIO && ctx.Rand.Bool(t.ioProbability()) {
			return guest.Read(t.dev, t.p.IOBytes, true)
		}
		fallthrough
	default: // compute toward the next synchronization point
		if t.remaining <= 0 {
			// Exiting: leave the barrier party first so the remaining
			// threads are not stranded waiting for this one.
			if t.barrier != nil && !t.left {
				t.left = true
				return guest.LeaveBarrier(t.barrier)
			}
			return guest.Done()
		}
		if t.p.SyncPerSec <= 0 {
			// No synchronization: burn the remaining work in slices so
			// ticks still preempt fairly.
			chunk := sim.MinTime(t.remaining, 10*sim.Millisecond)
			t.remaining -= chunk
			return guest.Compute(chunk)
		}
		interval := sim.Time(float64(sim.Second) / t.p.SyncPerSec)
		chunk := ctx.Rand.Exp(interval)
		if chunk > t.remaining {
			chunk = t.remaining
		}
		t.remaining -= chunk
		t.phase = 4 // next call acquires the lock
		return guest.Compute(chunk)
	case 4:
		t.phase = 1
		t.lock = t.locks[ctx.Rand.Intn(len(t.locks))]
		return guest.Acquire(t.lock)
	}
}

// ioProbability converts the profile's I/O rate into a per-sync-iteration
// probability for thread 0.
func (t *parProgram) ioProbability() float64 {
	if t.p.SyncPerSec <= 0 {
		return 0
	}
	p := t.p.IOOpsPerSec / t.p.SyncPerSec
	if p > 1 {
		p = 1
	}
	return p
}
