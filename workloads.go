package paratick

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"paratick/internal/iodev"
	"paratick/internal/sim"
	"paratick/internal/workload"
)

// Workload generates the guest tasks of a scenario. Implementations are
// created with the constructors below (ParsecSequential, FioWorkload, ...)
// or with CustomWorkload.
type Workload interface {
	apply(b *Builder) error
	name() string
}

// DeviceClass selects a block-device latency profile.
type DeviceClass int

const (
	// DeviceNVMe is a modern low-latency NVMe-class SSD (the default).
	DeviceNVMe DeviceClass = iota
	// DeviceSataSSD resembles the paper's test system storage.
	DeviceSataSSD
	// DeviceHDD is a rotational disk.
	DeviceHDD
)

// String names the class.
func (d DeviceClass) String() string {
	switch d {
	case DeviceSataSSD:
		return "sata-ssd"
	case DeviceHDD:
		return "hdd"
	default:
		return "nvme"
	}
}

func (d DeviceClass) profile() iodev.Profile {
	switch d {
	case DeviceSataSSD:
		return iodev.SataSSD()
	case DeviceHDD:
		return iodev.HDD()
	default:
		return iodev.NVMe()
	}
}

// ParsecBenchmarks returns the names of the 13 modeled PARSEC workloads.
func ParsecBenchmarks() []string {
	ps := workload.Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

type parsecSeq struct {
	bench string
	scale float64
	dev   DeviceClass
}

// ParsecSequential runs one PARSEC benchmark in sequential mode (the §6.1
// experiment) on vCPU 0, with its file I/O on an NVMe-class device.
func ParsecSequential(benchmark string) Workload {
	return &parsecSeq{bench: benchmark, scale: 1}
}

// ParsecSequentialScaled is ParsecSequential with the work multiplied by
// scale (shorter or longer runs).
func ParsecSequentialScaled(benchmark string, scale float64) Workload {
	return &parsecSeq{bench: benchmark, scale: scale}
}

func (w *parsecSeq) name() string { return "parsec-seq/" + w.bench }

func (w *parsecSeq) apply(b *Builder) error {
	p, err := workload.ProfileByName(w.bench)
	if err != nil {
		return err
	}
	dev, err := b.vm.AttachDevice("disk0", w.dev.profile())
	if err != nil {
		return err
	}
	prog, err := p.SequentialProgram(dev, w.scale)
	if err != nil {
		return err
	}
	b.vm.Kernel().Spawn(p.Name, 0, prog)
	return nil
}

type parsecPar struct {
	bench   string
	threads int
	scale   float64
	dev     DeviceClass
}

// ParsecParallel runs one PARSEC benchmark with the given thread count (the
// §6.2 experiment); threads are spread over the VM's vCPUs.
func ParsecParallel(benchmark string, threads int) Workload {
	return &parsecPar{bench: benchmark, threads: threads, scale: 1}
}

// ParsecParallelScaled is ParsecParallel with scaled work.
func ParsecParallelScaled(benchmark string, threads int, scale float64) Workload {
	return &parsecPar{bench: benchmark, threads: threads, scale: scale}
}

func (w *parsecPar) name() string {
	return fmt.Sprintf("parsec-par/%s-x%d", w.bench, w.threads)
}

func (w *parsecPar) apply(b *Builder) error {
	p, err := workload.ProfileByName(w.bench)
	if err != nil {
		return err
	}
	dev, err := b.vm.AttachDevice("disk0", w.dev.profile())
	if err != nil {
		return err
	}
	_, err = p.SpawnParallel(b.vm.Kernel(), w.threads, dev, w.scale)
	return err
}

type fioWL struct {
	pattern     string
	blockSizeKB int
	totalMB     int
	dev         DeviceClass
}

// FioWorkload runs a phoronix-fio-style job (the §6.3 experiment): pattern
// is one of "seqr", "seqwr", "rndr", "rndwr"; the job moves totalMB MiB in
// blockSizeKB-KiB synchronous operations on vCPU 0.
func FioWorkload(pattern string, blockSizeKB, totalMB int) Workload {
	return &fioWL{pattern: pattern, blockSizeKB: blockSizeKB, totalMB: totalMB}
}

// FioWorkloadOn is FioWorkload against a specific device class.
func FioWorkloadOn(pattern string, blockSizeKB, totalMB int, dev DeviceClass) Workload {
	return &fioWL{pattern: pattern, blockSizeKB: blockSizeKB, totalMB: totalMB, dev: dev}
}

func (w *fioWL) name() string {
	return fmt.Sprintf("fio/%s-%dk", w.pattern, w.blockSizeKB)
}

func (w *fioWL) apply(b *Builder) error {
	pat, err := workload.ParseFioPattern(w.pattern)
	if err != nil {
		return err
	}
	if w.blockSizeKB <= 0 || w.totalMB <= 0 {
		return fmt.Errorf("paratick: fio needs positive block size and total MB")
	}
	// Sizes past these wrap around when converted to bytes, and a wrapped
	// size would run as a different, valid one.
	if w.blockSizeKB > math.MaxInt>>10 || int64(w.totalMB) > math.MaxInt64>>20 {
		return fmt.Errorf("paratick: fio block size %d KiB or total %d MiB too large", w.blockSizeKB, w.totalMB)
	}
	dev, err := b.vm.AttachDevice("disk0", w.dev.profile())
	if err != nil {
		return err
	}
	job := workload.DefaultFioJob(pat, w.blockSizeKB<<10, int64(w.totalMB)<<20)
	return job.Spawn(b.vm.Kernel(), dev)
}

type idleWL struct{}

// IdleWorkload runs no tasks at all — the W1/W2 scenario of §3.3. Pair it
// with Scenario.Duration.
func IdleWorkload() Workload { return idleWL{} }

func (idleWL) name() string         { return "idle" }
func (idleWL) apply(*Builder) error { return nil }

type syncWL struct {
	threads     int
	syncsPerSec float64
	duration    time.Duration
}

// SyncWorkload runs the §3.3 blocking-synchronization microbenchmark:
// threads rendezvous pairwise at the aggregate rate for the duration
// (W3 is SyncWorkload(16, 1000, 10*time.Second)).
func SyncWorkload(threads int, syncsPerSec float64, duration time.Duration) Workload {
	return &syncWL{threads: threads, syncsPerSec: syncsPerSec, duration: duration}
}

func (w *syncWL) name() string {
	return fmt.Sprintf("sync/%dx%s", w.threads, strconv.FormatFloat(w.syncsPerSec, 'f', -1, 64))
}

func (w *syncWL) apply(b *Builder) error {
	bench := workload.SyncBench{
		Threads:     w.threads,
		SyncsPerSec: w.syncsPerSec,
		CSLen:       5 * sim.Microsecond,
		Duration:    sim.Time(w.duration.Nanoseconds()),
	}
	return bench.Spawn(b.vm.Kernel())
}

// ParseWorkloadSpec builds a workload from a colon-separated spec string,
// the syntax the command-line tools accept:
//
//	idle                     no tasks (pair with Scenario.Duration)
//	parsec-seq:NAME          sequential PARSEC benchmark
//	parsec-par:NAME:THREADS  multithreaded PARSEC benchmark
//	fio:PATTERN:BSKB:MB      fio job, e.g. fio:rndr:4:64
//	sync:THREADS:RATE        §3.3 blocking-sync microbenchmark
//
// duration is used by specs that need one (sync; defaulting to 1s).
func ParseWorkloadSpec(spec string, duration time.Duration) (Workload, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "idle":
		return IdleWorkload(), nil
	case "parsec-seq":
		if len(parts) != 2 {
			return nil, fmt.Errorf("paratick: want parsec-seq:NAME, got %q", spec)
		}
		return ParsecSequential(parts[1]), nil
	case "parsec-par":
		if len(parts) != 3 {
			return nil, fmt.Errorf("paratick: want parsec-par:NAME:THREADS, got %q", spec)
		}
		threads, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("paratick: bad thread count %q", parts[2])
		}
		return ParsecParallel(parts[1], threads), nil
	case "fio":
		if len(parts) != 4 {
			return nil, fmt.Errorf("paratick: want fio:PATTERN:BSKB:MB, got %q", spec)
		}
		bs, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("paratick: bad block size %q", parts[2])
		}
		mb, err := strconv.Atoi(parts[3])
		if err != nil {
			return nil, fmt.Errorf("paratick: bad total MB %q", parts[3])
		}
		return FioWorkload(parts[1], bs, mb), nil
	case "sync":
		if len(parts) != 3 {
			return nil, fmt.Errorf("paratick: want sync:THREADS:RATE, got %q", spec)
		}
		threads, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("paratick: bad thread count %q", parts[1])
		}
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("paratick: bad sync rate %q", parts[2])
		}
		if duration <= 0 {
			duration = time.Second
		}
		return SyncWorkload(threads, rate, duration), nil
	}
	return nil, fmt.Errorf("paratick: unknown workload spec %q", spec)
}
