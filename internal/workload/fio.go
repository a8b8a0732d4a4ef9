package workload

import (
	"fmt"

	"paratick/internal/guest"
	"paratick/internal/iodev"
	"paratick/internal/sim"
)

// FioPattern selects one of the four phoronix-fio access patterns of §6.3.
type FioPattern int

const (
	// SeqRead is sequential read ("seqr").
	SeqRead FioPattern = iota
	// SeqWrite is sequential write ("seqwr").
	SeqWrite
	// RandRead is random read ("rndr").
	RandRead
	// RandWrite is random write ("rndwr").
	RandWrite
)

// String returns the paper's abbreviation.
func (p FioPattern) String() string {
	switch p {
	case SeqRead:
		return "seqr"
	case SeqWrite:
		return "seqwr"
	case RandRead:
		return "rndr"
	case RandWrite:
		return "rndwr"
	}
	return fmt.Sprintf("fio(%d)", int(p))
}

// ParseFioPattern parses a pattern abbreviation.
func ParseFioPattern(s string) (FioPattern, error) {
	switch s {
	case "seqr":
		return SeqRead, nil
	case "seqwr":
		return SeqWrite, nil
	case "rndr":
		return RandRead, nil
	case "rndwr":
		return RandWrite, nil
	}
	return 0, fmt.Errorf("workload: unknown fio pattern %q (want seqr/seqwr/rndr/rndwr)", s)
}

// IsWrite reports whether the pattern writes.
func (p FioPattern) IsWrite() bool { return p == SeqWrite || p == RandWrite }

// IsSequential reports whether the pattern is sequential.
func (p FioPattern) IsSequential() bool { return p == SeqRead || p == SeqWrite }

// FioBlockSizes returns the §6.3 block-size sweep: 4 KiB to 256 KiB.
func FioBlockSizes() []int {
	return []int{4 << 10, 16 << 10, 64 << 10, 256 << 10}
}

// FioJob describes one fio run with the sync I/O engine.
type FioJob struct {
	Pattern    FioPattern
	BlockSize  int
	TotalBytes int64
	// ThinkPerOp is the application CPU spent per operation (buffer
	// preparation, checksums); the sync engine's userspace side.
	ThinkPerOp sim.Time
	// WriteBehind models page-cache write-back: only every Nth write
	// blocks for device completion (the paper: "writes are generally
	// asynchronous"). 1 = every write blocks (like O_SYNC); 0 defaults
	// to 2 (the paper disables buffering, so most writes reach the
	// device).
	WriteBehind int
}

// DefaultFioJob returns the paper-style job: sync engine, modest per-op
// CPU, write-behind of 8.
func DefaultFioJob(pattern FioPattern, blockSize int, totalBytes int64) FioJob {
	return FioJob{
		Pattern:     pattern,
		BlockSize:   blockSize,
		TotalBytes:  totalBytes,
		ThinkPerOp:  800 * sim.Nanosecond,
		WriteBehind: 2,
	}
}

// Validate checks the job.
func (j FioJob) Validate() error {
	if j.BlockSize <= 0 {
		return fmt.Errorf("workload: fio block size must be positive, got %d", j.BlockSize)
	}
	if j.TotalBytes < int64(j.BlockSize) {
		return fmt.Errorf("workload: fio total bytes %d below one block %d", j.TotalBytes, j.BlockSize)
	}
	if j.ThinkPerOp < 0 {
		return fmt.Errorf("workload: fio negative think time")
	}
	if j.WriteBehind < 0 {
		return fmt.Errorf("workload: fio negative write-behind")
	}
	return nil
}

// Ops returns the number of operations the job performs.
func (j FioJob) Ops() int {
	return int(j.TotalBytes / int64(j.BlockSize))
}

type fioProgram struct {
	//snap:skip immutable job definition from the scenario
	job FioJob
	//snap:skip device wiring, re-bound when the program is rebuilt
	dev      *iodev.Device
	opsLeft  int
	thinking bool
	opIndex  int
}

// Program builds the job's task program against dev.
func (j FioJob) Program(dev *iodev.Device) (guest.Program, error) {
	f := new(fioProgram)
	if err := j.initProgram(f, dev); err != nil {
		return nil, err
	}
	return f, nil
}

// initProgram validates the job and writes its program for dev into f.
func (j FioJob) initProgram(f *fioProgram, dev *iodev.Device) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if dev == nil {
		return fmt.Errorf("workload: fio needs a device")
	}
	wb := j.WriteBehind
	if wb == 0 {
		wb = 2
	}
	j.WriteBehind = wb
	*f = fioProgram{job: j, dev: dev, opsLeft: j.Ops(), thinking: true}
	return nil
}

func (f *fioProgram) Next(ctx *guest.StepCtx) guest.Step {
	if f.opsLeft <= 0 {
		return guest.Done()
	}
	if f.thinking {
		f.thinking = false
		// Per-op CPU scales mildly with block size (copying/checksums).
		think := f.job.ThinkPerOp + sim.Time(f.job.BlockSize/1024)*50
		return guest.Compute(ctx.Rand.Jitter(think, 0.2))
	}
	f.thinking = true
	f.opsLeft--
	f.opIndex++
	seq := f.job.Pattern.IsSequential()
	if f.job.Pattern.IsWrite() {
		blocking := f.job.WriteBehind <= 1 || f.opIndex%f.job.WriteBehind == 0
		return guest.WriteOp(f.dev, f.job.BlockSize, seq, blocking)
	}
	return guest.Read(f.dev, f.job.BlockSize, seq)
}

// Spawn creates the fio task on vCPU 0 (the paper runs fio in a 1-vCPU VM).
// A kernel recycled from a fio run reuses that run's program.
func (j FioJob) Spawn(k *guest.Kernel, dev *iodev.Device) error {
	var slab []fioProgram
	prog := guest.NewProgram(k, &slab, 1)
	if err := j.initProgram(prog, dev); err != nil {
		return err
	}
	k.Spawn(fioTaskName(j.Pattern), 0, prog)
	return nil
}

// fioTaskNames holds the task name of each pattern, so spawning into a
// recycled VM formats nothing.
var fioTaskNames = [...]string{
	SeqRead: "fio-seqr", SeqWrite: "fio-seqwr", RandRead: "fio-rndr", RandWrite: "fio-rndwr",
}

// fioTaskName returns the task name for p, formatting one only for a
// pattern outside the table.
func fioTaskName(p FioPattern) string {
	if p >= 0 && int(p) < len(fioTaskNames) {
		return fioTaskNames[p]
	}
	return "fio-" + p.String()
}
