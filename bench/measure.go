package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"paratick/internal/snap"
)

// opSample is one timed op. Every sample is kept so quartiles can be
// recomputed from the -out file.
type opSample struct {
	Seed   uint64 `json:"seed"`
	Cold   bool   `json:"cold"`
	WallNs int64  `json:"wall_ns"`
	CPUNs  int64  `json:"cpu_ns"`
	Events uint64 `json:"events"`
	Allocs uint64 `json:"allocs"`
	OK     bool   `json:"ok"`
}

// workloadRun accumulates one workload's rounds.
type workloadRun struct {
	spec *workloadSpec
	base uint64
	// refs[i] is the reference digest for seed base+i, computed on first
	// use.
	refs     []*snap.Digest
	ops      []opSample
	failed   int
	firstErr error
	// cal holds a calibration time after every op.
	cal []float64
	// heldMiB holds, per round, the live heap the round's runner retains.
	heldMiB []float64
}

func newWorkloadRun(spec *workloadSpec, base uint64) *workloadRun {
	return &workloadRun{spec: spec, base: base, refs: make([]*snap.Digest, spec.seeds)}
}

// ref returns the reference digest for seed base+i.
func (r *workloadRun) ref(i int) (snap.Digest, error) {
	if r.refs[i] == nil {
		d, err := r.spec.reference(r.base + uint64(i))
		if err != nil {
			return 0, fmt.Errorf("reference for seed %d: %w", r.base+uint64(i), err)
		}
		r.refs[i] = &d
	}
	return *r.refs[i], nil
}

// prepare computes every seed's reference before the timed rounds start.
func (r *workloadRun) prepare() error {
	for i := range r.refs {
		if _, err := r.ref(i); err != nil {
			return fmt.Errorf("%s: %w", r.spec.name, err)
		}
	}
	return nil
}

// round runs one cold op on a fresh runner, then the warm ops on it, and
// records the live heap the runner's pooled worlds retain: the live heap
// with the runner held minus the live heap once it is dropped, which leaves
// out the benchmark's own growing sample slices.
func (r *workloadRun) round() {
	run := r.spec.newRunner()
	r.op(run, true)
	for j := 0; j < r.spec.warm; j++ {
		r.op(run, false)
	}
	held := liveHeap()
	runtime.KeepAlive(run)
	r.heldMiB = append(r.heldMiB, float64(int64(held)-int64(liveHeap()))/(1<<20))
}

// liveHeap returns the heap still allocated after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// op times one op: wall clock, process CPU time, and exact heap
// allocations (runtime.ReadMemStats flushes every P's cache, where
// /gc/heap/allocs:objects lags by up to a span per size class). The digest
// check and a calibration sample follow outside the timed window.
func (r *workloadRun) op(run opRunner, cold bool) {
	i := len(r.ops) % len(r.refs)
	seed := r.base + uint64(i)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	c0 := cpuTime()
	t0 := time.Now()
	events, err := run.run(seed)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&ms)
	s := opSample{Seed: seed, Cold: cold, WallNs: wall.Nanoseconds(), CPUNs: c1 - c0,
		Events: events, Allocs: ms.Mallocs - m0}
	if err == nil {
		var ref snap.Digest
		if ref, err = r.ref(i); err == nil && run.digest() != ref {
			err = fmt.Errorf("seed %d: digest %v, reference %v", seed, run.digest(), ref)
		}
	}
	s.OK = err == nil
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	r.ops = append(r.ops, s)
	r.cal = append(r.cal, float64(calibrate()))
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// calibrationRefNs is the calibration kernel's p10 time on the reference
// machine (2-vCPU Intel Xeon, see README.md). Host-time metrics are scaled
// to it: the machine's speed drifts by up to 30% over minutes, and scaling
// by a kernel no change to the simulator can move cancels that drift.
const calibrationRefNs = 1.4e6

// slowdownOf is how much slower than the reference machine the calibration
// samples ran, taking their fastest tenth like the timings they scale.
func slowdownOf(cal []float64) float64 { return quantile(cal, 0.1) / calibrationRefNs }

// calibrations takes a batch of calibration samples.
func calibrations() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = float64(calibrate())
	}
	return out
}

// atReferenceSpeed scales host-time metrics to the reference machine.
func atReferenceSpeed(ms []metric, slowdown float64) {
	for i := range ms {
		switch ms[i].unit {
		case "ns", "us", "ms", "s":
			ms[i].value /= slowdown
		}
	}
}

// endToEnd derives the end-to-end metrics from the recorded ops. Timings
// take the fastest tenth of samples: the reference machine also flickers
// between two speeds within a run, and the p10 reads the fast one
// consistently. Allocations take the mean: a count depends on the seed, not
// the machine, and the mean over every warm op varies least with the seeds
// a run covers.
func (r *workloadRun) endToEnd() []metric {
	var cold, rate, cpu, allocs []float64
	for _, s := range r.ops {
		if s.Cold {
			cold = append(cold, float64(s.WallNs)/1e9)
			continue
		}
		allocs = append(allocs, float64(s.Allocs))
		if s.Events > 0 {
			rate = append(rate, float64(s.Events)/(float64(s.WallNs)/1e9))
			cpu = append(cpu, float64(s.CPUNs)/float64(s.Events))
		}
	}
	slowdown := slowdownOf(r.cal)
	ms := []metric{
		{"events_per_sec", "events/s", quantile(rate, 0.9) * slowdown},
		{"cpu_ns_per_event", "ns", quantile(cpu, 0.1)},
		{"setup_s", "s", quantile(cold, 0.1)},
		{"allocs_per_op", "count", mean(allocs)},
		{"heap_live_mb", "MiB", quantile(r.heldMiB, 0.5)},
	}
	atReferenceSpeed(ms, slowdown)
	return ms
}

// mean returns the arithmetic mean of xs (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// calibrate times a fixed CPU-bound kernel that lives in this package, so
// no change to the simulator can move it: an event-queue-shaped binary
// min-heap of 1024 keys under a pseudo-random push/pop mix. Its time
// tracks how fast the machine is running right now.
func calibrate() int64 {
	const n = 1024
	var heap [n]uint64
	size := 0
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 50000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if size == 0 || (size < n && x&3 != 0) {
			j := size
			heap[j] = x >> 20
			size++
			for j > 0 && heap[(j-1)/2] > heap[j] {
				heap[(j-1)/2], heap[j] = heap[j], heap[(j-1)/2]
				j = (j - 1) / 2
			}
			continue
		}
		size--
		heap[0] = heap[size]
		for j := 0; ; {
			c := 2*j + 1
			if c >= size {
				break
			}
			if c+1 < size && heap[c+1] < heap[c] {
				c++
			}
			if heap[j] <= heap[c] {
				break
			}
			heap[j], heap[c] = heap[c], heap[j]
			j = c
		}
	}
	d := time.Since(t0)
	calSink += heap[0]
	return int64(d)
}

var calSink uint64

// cpuTime returns the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
