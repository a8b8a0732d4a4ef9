package workload

import (
	"math"
	"strconv"
	"testing"

	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sim"
)

func testKernel(t *testing.T, vcpus int) (*sim.Engine, *guest.Kernel) {
	t.Helper()
	e := sim.NewEngine(9)
	k, err := guest.NewKernel(e, hw.DefaultCostModel(), guest.DefaultConfig(), &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < vcpus; i++ {
		k.AddVCPU()
	}
	return e, k
}

func testDevice(t *testing.T, e *sim.Engine) *iodev.Device {
	t.Helper()
	d, err := iodev.New(e, "d", iodev.NVMe(), hw.IODeviceBase)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProfilesCompleteAndValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 13 {
		t.Fatalf("PARSEC suite has %d profiles, want 13 (§6.1)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
	// The canonical names must all be present.
	for _, name := range []string{"blackscholes", "bodytrack", "canneal", "dedup",
		"facesim", "ferret", "fluidanimate", "freqmine", "raytrace",
		"streamcluster", "swaptions", "vips", "x264"} {
		if !seen[name] {
			t.Errorf("missing PARSEC benchmark %s", name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("dedup")
	if err != nil || p.Name != "dedup" {
		t.Fatalf("ProfileByName(dedup) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestProfileSpectrum(t *testing.T) {
	// The suite must span the behaviours that drive Fig. 4/5 variance:
	// dedup/ferret I/O-heavy vs swaptions/blackscholes I/O-lean, and
	// fluidanimate sync-heavy vs swaptions sync-lean.
	by := map[string]ParsecProfile{}
	for _, p := range Profiles() {
		by[p.Name] = p
	}
	if by["dedup"].IOOpsPerSec < 10*by["swaptions"].IOOpsPerSec {
		t.Error("dedup should be far more I/O-intensive than swaptions")
	}
	if by["fluidanimate"].SyncPerSec < 20*by["swaptions"].SyncPerSec {
		t.Error("fluidanimate should be far more sync-intensive than swaptions")
	}
}

func TestProfileValidateRejects(t *testing.T) {
	bad := []ParsecProfile{
		{Name: "", Work: 1},
		{Name: "x", Work: 0},
		{Name: "x", Work: 1, IOOpsPerSec: -1},
		{Name: "x", Work: 1, IOOpsPerSec: 5, IOBytes: 0},
		{Name: "x", Work: 1, SyncPerSec: 5, CSLen: 0},
		{Name: "x", Work: 1, BarrierIters: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestSequentialProgramConsumesWork(t *testing.T) {
	_, k := testKernel(t, 1)
	p, _ := ProfileByName("swaptions") // nearly pure compute
	prog, err := p.SequentialProgram(nil, 0.01)
	if err != nil {
		// swaptions has nonzero I/O rate; must pass a device.
		e2, k2 := testKernel(t, 1)
		prog, err = p.SequentialProgram(testDevice(t, e2), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		k = k2
	}
	var total sim.Time
	ctx := &guest.StepCtx{Rand: sim.NewRand(1)}
	steps := 0
	for {
		s := prog.Next(ctx)
		if s.Kind == guest.StepDone {
			break
		}
		if s.Kind == guest.StepCompute {
			total += s.D
		}
		steps++
		if steps > 100000 {
			t.Fatal("program never terminates")
		}
	}
	want := sim.Time(float64(p.Work) * 0.01)
	if total != want {
		t.Fatalf("compute total = %v, want %v", total, want)
	}
	_ = k
}

func TestSequentialProgramRequiresDeviceForIO(t *testing.T) {
	p, _ := ProfileByName("dedup")
	if _, err := p.SequentialProgram(nil, 1); err == nil {
		t.Fatal("I/O profile accepted without device")
	}
	if _, err := p.SequentialProgram(nil, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestSequentialProgramEmitsIO(t *testing.T) {
	e, _ := testKernel(t, 1)
	dev := testDevice(t, e)
	p, _ := ProfileByName("dedup")
	prog, err := p.SequentialProgram(dev, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &guest.StepCtx{Rand: sim.NewRand(1)}
	ios, steps := 0, 0
	for {
		s := prog.Next(ctx)
		if s.Kind == guest.StepDone {
			break
		}
		if s.Kind == guest.StepIO {
			ios++
			if s.Write {
				t.Fatal("parsec streaming model reads only")
			}
			if !s.Blocking {
				t.Fatal("sequential I/O must be sync (§6.3 sync engine rationale)")
			}
			if s.Bytes != p.IOBytes {
				t.Fatalf("io bytes = %d, want %d", s.Bytes, p.IOBytes)
			}
		}
		steps++
		if steps > 1000000 {
			t.Fatal("runaway program")
		}
	}
	// 0.05×450ms of work at 900 ops/s ≈ 20 ops expected.
	if ios < 5 {
		t.Fatalf("dedup emitted only %d I/O ops", ios)
	}
}

func TestSpawnParallelCreatesThreads(t *testing.T) {
	e, k := testKernel(t, 4)
	dev := testDevice(t, e)
	p, _ := ProfileByName("fluidanimate")
	art, err := p.SpawnParallel(k, 4, dev, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Tasks()) != 4 {
		t.Fatalf("spawned %d tasks, want 4", len(k.Tasks()))
	}
	if len(art.Locks) == 0 {
		t.Fatal("no lock stripes")
	}
	if art.Barrier == nil {
		t.Fatal("fluidanimate (BarrierIters>0) should have a barrier")
	}
	if art.Barrier.Parties() != 4 {
		t.Fatalf("barrier parties = %d", art.Barrier.Parties())
	}
	// Tasks are spread across vCPUs.
	used := map[int]bool{}
	for _, task := range k.Tasks() {
		used[task.VCPU().ID()] = true
	}
	if len(used) != 4 {
		t.Fatalf("tasks use %d vCPUs, want 4", len(used))
	}
}

func TestSpawnParallelValidation(t *testing.T) {
	e, k := testKernel(t, 2)
	dev := testDevice(t, e)
	p, _ := ProfileByName("dedup")
	if _, err := p.SpawnParallel(k, 0, dev, 1); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := p.SpawnParallel(k, maxThreads+1, dev, 1); err == nil {
		t.Error("more than maxThreads threads accepted")
	}
	if _, err := p.SpawnParallel(k, 2, nil, 1); err == nil {
		t.Error("io profile without device accepted")
	}
	if _, err := p.SpawnParallel(k, 2, dev, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestFioPatternParsing(t *testing.T) {
	for _, c := range []struct {
		s string
		p FioPattern
	}{{"seqr", SeqRead}, {"seqwr", SeqWrite}, {"rndr", RandRead}, {"rndwr", RandWrite}} {
		got, err := ParseFioPattern(c.s)
		if err != nil || got != c.p {
			t.Errorf("ParseFioPattern(%q) = %v, %v", c.s, got, err)
		}
		if c.p.String() != c.s {
			t.Errorf("%v.String() = %q", c.p, c.p.String())
		}
	}
	if _, err := ParseFioPattern("zzz"); err == nil {
		t.Error("bad pattern accepted")
	}
	if FioPattern(9).String() != "fio(9)" {
		t.Error("unknown pattern string")
	}
}

func TestFioPatternClassification(t *testing.T) {
	if !SeqWrite.IsWrite() || !RandWrite.IsWrite() || SeqRead.IsWrite() || RandRead.IsWrite() {
		t.Error("IsWrite wrong")
	}
	if !SeqRead.IsSequential() || !SeqWrite.IsSequential() || RandRead.IsSequential() {
		t.Error("IsSequential wrong")
	}
}

func TestFioBlockSizes(t *testing.T) {
	bs := FioBlockSizes()
	if bs[0] != 4096 || bs[len(bs)-1] != 256<<10 {
		t.Fatalf("block sizes %v must span 4k–256k (§6.3)", bs)
	}
}

func TestFioJobOpsAndValidation(t *testing.T) {
	j := DefaultFioJob(RandRead, 4096, 4096*100)
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.Ops() != 100 {
		t.Fatalf("Ops = %d", j.Ops())
	}
	bad := []FioJob{
		{Pattern: SeqRead, BlockSize: 0, TotalBytes: 1},
		{Pattern: SeqRead, BlockSize: 4096, TotalBytes: 100},
		{Pattern: SeqRead, BlockSize: 4096, TotalBytes: 8192, ThinkPerOp: -1},
		{Pattern: SeqRead, BlockSize: 4096, TotalBytes: 8192, WriteBehind: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
}

func TestFioProgramReadSteps(t *testing.T) {
	e, _ := testKernel(t, 1)
	dev := testDevice(t, e)
	j := DefaultFioJob(RandRead, 4096, 4096*50)
	prog, err := j.Program(dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &guest.StepCtx{Rand: sim.NewRand(3)}
	reads := 0
	for i := 0; i < 10000; i++ {
		s := prog.Next(ctx)
		if s.Kind == guest.StepDone {
			break
		}
		if s.Kind == guest.StepIO {
			reads++
			if s.Write || s.Sequential || !s.Blocking {
				t.Fatalf("rndr op wrong: %+v", s)
			}
		}
	}
	if reads != 50 {
		t.Fatalf("reads = %d, want 50", reads)
	}
}

func TestFioWriteBehindBlocksEveryNth(t *testing.T) {
	e, _ := testKernel(t, 1)
	dev := testDevice(t, e)
	j := DefaultFioJob(SeqWrite, 4096, 4096*64)
	prog, err := j.Program(dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &guest.StepCtx{Rand: sim.NewRand(3)}
	writes, blocking := 0, 0
	for i := 0; i < 10000; i++ {
		s := prog.Next(ctx)
		if s.Kind == guest.StepDone {
			break
		}
		if s.Kind == guest.StepIO {
			writes++
			if !s.Write || !s.Sequential {
				t.Fatalf("seqwr op wrong: %+v", s)
			}
			if s.Blocking {
				blocking++
			}
		}
	}
	if writes != 64 {
		t.Fatalf("writes = %d", writes)
	}
	if blocking != 32 { // every 2nd (buffering disabled, §6.3)
		t.Fatalf("blocking writes = %d, want 32 (write-behind 2)", blocking)
	}
}

func TestFioProgramNeedsDevice(t *testing.T) {
	j := DefaultFioJob(SeqRead, 4096, 8192)
	if _, err := j.Program(nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestSyncBenchValidate(t *testing.T) {
	if err := DefaultSyncBench().Validate(); err != nil {
		t.Fatal(err)
	}
	// Each row breaks one field of an otherwise valid spec.
	bad := []SyncBench{
		{Threads: 0, SyncsPerSec: 1, CSLen: 1, Duration: 1},
		{Threads: 1, SyncsPerSec: 1, CSLen: 1, Duration: 1},
		{Threads: maxThreads + 2, SyncsPerSec: 1, CSLen: 1, Duration: 1},
		{Threads: 2, SyncsPerSec: 0, CSLen: 1, Duration: 1},
		{Threads: 2, SyncsPerSec: math.NaN(), CSLen: 1, Duration: 1},
		{Threads: 2, SyncsPerSec: math.Inf(1), CSLen: 1, Duration: 1},
		// Finite rates whose mean interval overflows sim.Time, or rounds
		// to 0 ns.
		{Threads: 2, SyncsPerSec: 1e-300, CSLen: 1, Duration: 1},
		{Threads: 2, SyncsPerSec: 1e300, CSLen: 1, Duration: 1},
		{Threads: 2, SyncsPerSec: 1, CSLen: 0, Duration: 1},
		{Threads: 2, SyncsPerSec: 1, CSLen: 1, Duration: 0},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad syncbench %d accepted", i)
		}
	}
}

func TestSyncBenchSpawn(t *testing.T) {
	_, k := testKernel(t, 16)
	b := DefaultSyncBench()
	if err := b.Spawn(k); err != nil {
		t.Fatal(err)
	}
	if len(k.Tasks()) != 16 {
		t.Fatalf("tasks = %d, want 16", len(k.Tasks()))
	}
}

func TestSyncBenchProgramShape(t *testing.T) {
	b := DefaultSyncBench()
	_, k := testKernel(t, 1)
	meet := k.NewBarrier("m", 2)
	p := &syncProgram{b: b, meet: meet, until: sim.Second}
	ctx := &guest.StepCtx{Rand: sim.NewRand(4)}
	// compute → rendezvous → shared work cycle
	s := p.Next(ctx)
	if s.Kind != guest.StepCompute {
		t.Fatalf("step 1 = %v", s.Kind)
	}
	if s2 := p.Next(ctx); s2.Kind != guest.StepBarrier {
		t.Fatalf("step 2 = %v", s2.Kind)
	}
	if s3 := p.Next(ctx); s3.Kind != guest.StepCompute {
		t.Fatalf("step 3 = %v", s3.Kind)
	}
	// Past the deadline it leaves the barrier party, then finishes.
	ctx.Now = 2 * sim.Second
	if s4 := p.Next(ctx); s4.Kind != guest.StepBarrierLeave {
		t.Fatalf("step 4 = %v", s4.Kind)
	}
	if s5 := p.Next(ctx); s5.Kind != guest.StepDone {
		t.Fatalf("step 5 = %v", s5.Kind)
	}
}

func TestSyncBenchRejectsOddThreads(t *testing.T) {
	b := DefaultSyncBench()
	b.Threads = 7
	if err := b.Validate(); err == nil {
		t.Fatal("odd thread count accepted")
	}
}

func TestParallelProgramStateMachine(t *testing.T) {
	// Step the per-thread program directly through one full iteration:
	// compute → acquire → critical section → release → (barrier | io |
	// compute), and verify Done after the work is exhausted (leaving the
	// barrier first).
	e, k := testKernel(t, 1)
	dev := testDevice(t, e)
	p, _ := ProfileByName("x264") // has barriers and io
	art, err := p.SpawnParallel(k, 2, dev, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	prog := &parProgram{
		p:         p,
		dev:       dev,
		locks:     art.Locks,
		barrier:   art.Barrier,
		remaining: sim.Time(float64(p.Work) * 0.001),
		doIO:      true,
	}
	ctx := &guest.StepCtx{Rand: sim.NewRand(2)}
	kinds := map[guest.StepKind]int{}
	for i := 0; i < 100000; i++ {
		s := prog.Next(ctx)
		kinds[s.Kind]++
		if s.Kind == guest.StepDone {
			break
		}
	}
	if kinds[guest.StepDone] != 1 {
		t.Fatal("program never finished")
	}
	if kinds[guest.StepLock] == 0 || kinds[guest.StepUnlock] == 0 {
		t.Fatalf("no lock traffic: %v", kinds)
	}
	if kinds[guest.StepLock] != kinds[guest.StepUnlock] {
		t.Fatalf("unbalanced lock/unlock: %v", kinds)
	}
	if kinds[guest.StepBarrier] == 0 {
		t.Fatalf("no barrier joins: %v", kinds)
	}
	if kinds[guest.StepBarrierLeave] != 1 {
		t.Fatalf("barrier leave count: %v", kinds)
	}
	if kinds[guest.StepIO] == 0 {
		t.Fatalf("thread 0 did no io: %v", kinds)
	}
}

func TestParallelProgramNoSyncProfile(t *testing.T) {
	// A profile without synchronization burns its work in slices.
	prog := &parProgram{
		p:         ParsecProfile{Name: "x", Work: 50 * sim.Millisecond, CSLen: sim.Microsecond},
		remaining: 25 * sim.Millisecond,
	}
	ctx := &guest.StepCtx{Rand: sim.NewRand(2)}
	var total sim.Time
	for i := 0; i < 1000; i++ {
		s := prog.Next(ctx)
		if s.Kind == guest.StepDone {
			break
		}
		if s.Kind != guest.StepCompute {
			t.Fatalf("unexpected step %v", s.Kind)
		}
		total += s.D
	}
	if total != 25*sim.Millisecond {
		t.Fatalf("total compute = %v", total)
	}
}

func TestIOProbabilityClamps(t *testing.T) {
	prog := &parProgram{p: ParsecProfile{IOOpsPerSec: 5000, SyncPerSec: 1000}}
	if got := prog.ioProbability(); got != 1 {
		t.Fatalf("probability = %v, want clamped 1", got)
	}
	prog2 := &parProgram{p: ParsecProfile{IOOpsPerSec: 100, SyncPerSec: 1000}}
	if got := prog2.ioProbability(); got != 0.1 {
		t.Fatalf("probability = %v, want 0.1", got)
	}
	prog3 := &parProgram{p: ParsecProfile{IOOpsPerSec: 100}}
	if got := prog3.ioProbability(); got != 0 {
		t.Fatalf("no-sync probability = %v, want 0", got)
	}
}

func TestFioSpawn(t *testing.T) {
	e, k := testKernel(t, 1)
	dev := testDevice(t, e)
	j := DefaultFioJob(SeqRead, 4096, 4096*4)
	if err := j.Spawn(k, dev); err != nil {
		t.Fatal(err)
	}
	if len(k.Tasks()) != 1 || k.Tasks()[0].Name != "fio-seqr" {
		t.Fatalf("tasks: %v", k.Tasks())
	}
	bad := DefaultFioJob(SeqRead, 0, 4096)
	if err := bad.Spawn(k, dev); err == nil {
		t.Fatal("invalid job spawned")
	}
}

// TestNameTablesMatchFormatting pins the pre-built task and lock names to
// the names formatting would give, including the fallbacks: an index past
// a table, a profile without one, and a pattern outside the fio table.
func TestNameTablesMatchFormatting(t *testing.T) {
	for p := SeqRead; p <= RandWrite+1; p++ {
		if got, want := fioTaskName(p), "fio-"+p.String(); got != want {
			t.Errorf("fio task name of %v = %q, want %q", p, got, want)
		}
	}
	profiles := append(Profiles(), ParsecProfile{Name: "custom"})
	for _, p := range profiles {
		names := parsecNameTables[p.Name]
		for i := 0; i <= nameTableSize; i++ {
			if got, want := indexedName(names.tasks, p.Name, ".", i), p.Name+"."+strconv.Itoa(i); got != want {
				t.Fatalf("task name %d of %s = %q, want %q", i, p.Name, got, want)
			}
			if got, want := indexedName(names.locks, p.Name, ".lock", i), p.Name+".lock"+strconv.Itoa(i); got != want {
				t.Fatalf("lock name %d of %s = %q, want %q", i, p.Name, got, want)
			}
		}
	}
}
