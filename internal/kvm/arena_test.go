package kvm

import (
	"slices"
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/hw"
	"paratick/internal/iodev"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
	"paratick/internal/workload"
)

// runWorkload builds a host on se via the given arena, boots two VMs with a
// small CPU-burn workload, runs to completion, and returns the digest of
// the final engine state plus the per-VM exit totals — everything a reused
// host could plausibly corrupt.
func arenaRun(t *testing.T, a *HostArena, se *sim.ShardedEngine, cfg Config) (snap.Digest, []uint64) {
	t.Helper()
	host, err := a.NewHostOn(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var exits []uint64
	for i := 0; i < 2; i++ {
		gcfg := guest.DefaultConfig()
		if i == 1 {
			gcfg.Mode = core.Paratick
		}
		vm, err := host.NewVM("vm", gcfg, []hw.CPUID{hw.CPUID(2 * i), hw.CPUID(2*i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		vm.Kernel().Spawn("burn", 0, guest.Steps(guest.Compute(3*sim.Millisecond)))
		vm.Start()
	}
	se.RunUntil(20 * sim.Millisecond)
	for _, vm := range host.VMs() {
		if done, _ := vm.WorkloadDone(); !done {
			t.Fatal("workload did not finish")
		}
		exits = append(exits, vm.Counters().TotalExits())
	}
	return se.Root().DigestState(), exits
}

// TestHostArenaReuseMatchesFresh pins the pool's contract: a run on a
// reused host is indistinguishable from a run on a freshly built one —
// same engine digest, same counters — including when the reuse switches
// scheduler policy and cost knobs between runs.
func TestHostArenaReuseMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	fair := cfg
	fair.SchedPolicy = sched.Fair
	fair.Timeslice = 3 * sim.Millisecond
	fair.HaltPoll = 50 * sim.Microsecond

	fresh := func(c Config) (snap.Digest, []uint64) {
		e := sim.NewEngine(7)
		return arenaRun(t, nil, sim.WrapEngine(e), c)
	}
	wantFifo0, exitsFifo0 := fresh(cfg)
	wantFair, exitsFair := fresh(fair)

	a := &HostArena{}
	e := sim.NewEngine(7)
	se := sim.WrapEngine(e)
	for round, tc := range []struct {
		cfg    Config
		digest snap.Digest
		exits  []uint64
	}{
		{cfg: cfg, digest: wantFifo0, exits: exitsFifo0},
		{cfg: fair, digest: wantFair, exits: exitsFair}, // policy + knob switch on reuse
		{cfg: cfg, digest: wantFifo0, exits: exitsFifo0},
	} {
		e.Reset(7)
		dig, exits := arenaRun(t, a, se, tc.cfg)
		if dig != tc.digest {
			t.Fatalf("round %d: reused-host digest %x, fresh run %x", round, dig, tc.digest)
		}
		for i := range exits {
			if exits[i] != tc.exits[i] {
				t.Fatalf("round %d: vm %d exits %d on reuse, %d fresh", round, i, exits[i], tc.exits[i])
			}
		}
	}
	if a.host == nil {
		t.Fatal("arena never cached a host")
	}
}

// arenaWork is the workload vmArenaRun gives each VM.
type arenaWork int

const (
	burnWork   arenaWork = iota // one CPU-burn task
	syncWork                    // two tasks meeting on a lock and a barrier
	fioWork                     // reads and writes on an attached NVMe device
	fioJobWork                  // the fio workload's program on an NVMe device
	benchWork                   // the sync benchmark's four paired threads
	parsecWork                  // PARSEC dedup's four threads, thread 0 doing I/O
)

func (w arenaWork) String() string {
	return [...]string{"burn", "sync", "fio", "fio-job", "syncbench", "parsec"}[w]
}

// arenaDone is when vmArenaRun stops a run it lets finish.
const arenaDone = 30 * sim.Millisecond

// vmArenaRun builds a host on se through the arena, boots two 2-vCPU VMs in
// the given guest shape, runs to completion, and returns the engine digest,
// the per-VM exit totals, and the devices the VMs attached. The variant
// axes — tick mode, guest Hz, and workload (pure compute, lock/barrier sync,
// device I/O, and the fio, sync and PARSEC workloads' own programs) — are
// exactly what the VM arena must recycle across without observable effect.
func vmArenaRun(t *testing.T, a *HostArena, se *sim.ShardedEngine, cfg Config, hz int, mode core.Mode, work arenaWork) (snap.Digest, []uint64, []*iodev.Device) {
	t.Helper()
	return vmArenaRunUntil(t, a, se, cfg, hz, mode, work, arenaDone)
}

// vmArenaRunUntil is vmArenaRun stopped at until. A run stopped before
// arenaDone is abandoned mid-way: its workload is not checked for
// completion, and its digest also covers the host checkpoint, so every
// task's program state at the cut is compared.
func vmArenaRunUntil(t *testing.T, a *HostArena, se *sim.ShardedEngine, cfg Config, hz int, mode core.Mode, work arenaWork, until sim.Time) (snap.Digest, []uint64, []*iodev.Device) {
	t.Helper()
	if until == 0 {
		until = arenaDone
	}
	host, err := a.NewHostOn(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var devs []*iodev.Device
	for i := 0; i < 2; i++ {
		gcfg := guest.DefaultConfig()
		gcfg.TickHz = hz
		gcfg.Mode = mode
		vm, err := host.NewVM("vm", gcfg, []hw.CPUID{hw.CPUID(2 * i), hw.CPUID(2*i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		k := vm.Kernel()
		switch work {
		case syncWork:
			l := k.NewLock("l")
			bar := k.NewBarrier("b", 2)
			for task := 0; task < 2; task++ {
				k.Spawn("sync", task, guest.Steps(
					guest.Acquire(l),
					guest.Compute(200*sim.Microsecond),
					guest.Release(l),
					guest.JoinBarrier(bar),
					guest.Compute(100*sim.Microsecond),
				))
			}
		case fioWork:
			dev, err := vm.AttachDevice("disk0", iodev.NVMe())
			if err != nil {
				t.Fatal(err)
			}
			devs = append(devs, dev)
			for task := 0; task < 2; task++ {
				k.Spawn("fio", task, guest.Steps(
					guest.Read(dev, 4096, false),
					guest.Compute(50*sim.Microsecond),
					guest.WriteOp(dev, 16384, true, true),
					guest.Read(dev, 65536, true),
					guest.WriteOp(dev, 4096, false, false),
					guest.Compute(20*sim.Microsecond),
				))
			}
		case fioJobWork:
			dev, err := vm.AttachDevice("disk0", iodev.NVMe())
			if err != nil {
				t.Fatal(err)
			}
			devs = append(devs, dev)
			if err := workload.DefaultFioJob(workload.RandRead, 4096, 32*4096).Spawn(k, dev); err != nil {
				t.Fatal(err)
			}
		case benchWork:
			b := workload.SyncBench{Threads: 4, SyncsPerSec: 20000, CSLen: 5 * sim.Microsecond, Duration: 5 * sim.Millisecond}
			if err := b.Spawn(k); err != nil {
				t.Fatal(err)
			}
		case parsecWork:
			dev, err := vm.AttachDevice("disk0", iodev.NVMe())
			if err != nil {
				t.Fatal(err)
			}
			devs = append(devs, dev)
			p, err := workload.ProfileByName("dedup")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.SpawnParallel(k, 4, dev, 0.005); err != nil {
				t.Fatal(err)
			}
		default:
			k.Spawn("burn", 0, guest.Steps(guest.Compute(3*sim.Millisecond)))
		}
		vm.Start()
	}
	se.RunUntil(until)
	var exits []uint64
	for _, vm := range host.VMs() {
		if done, _ := vm.WorkloadDone(); !done && until == arenaDone {
			t.Fatal("workload did not finish")
		}
		exits = append(exits, vm.Counters().TotalExits())
	}
	if work == fioWork {
		for _, vm := range host.VMs() {
			if c := vm.Counters(); c.IOReads != 4 || c.IOWrites != 4 {
				t.Fatalf("fio VM completed %d reads and %d writes, want 4 and 4", c.IOReads, c.IOWrites)
			}
		}
	}
	dig := se.Root().DigestState()
	if until != arenaDone {
		var enc snap.Encoder
		if err := host.Save(&enc); err != nil {
			t.Fatal(err)
		}
		dig ^= snap.HashBytes(enc.Bytes())
	}
	return dig, exits, devs
}

// TestVMArenaRecycledMatchesFresh is the VM pool's digest audit: a run whose
// VMs came out of the arena must be byte-identical — engine digest and
// counters — to the same run on freshly constructed VMs, including when
// consecutive runs switch tick mode, guest Hz, and workload shape (compute,
// lock/barrier sync, device I/O). The Hz switch also exercises the shape
// key: a 100 Hz request cannot reuse a pooled 250 Hz VM, and since the pool
// keeps only the last world's VMs, the 250 Hz round after it rebuilds its
// VMs too — fresh builds interleaved with recycled ones. The last fio round
// must run on the devices the first one attached, kept in the kernels'
// device pools across the burn round between them. The fio, sync-benchmark
// and PARSEC rounds respawn their workloads' programs into the shells of
// the retired tasks: after a run of another program type (which must build
// fresh programs), after a run of their own type, and after a world
// abandoned mid-run, whose programs are zeroed halfway through their work.
// An abandoned round's digest also covers the host checkpoint, so every
// task's program state at the cut is compared.
func TestVMArenaRecycledMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	type variant struct {
		hz    int
		mode  core.Mode
		work  arenaWork
		until sim.Time // 0 runs to arenaDone; earlier abandons the world
	}
	rounds := []variant{
		{250, core.Periodic, burnWork, 0},
		{250, core.Paratick, syncWork, 0},     // mode + workload switch on recycled VMs
		{100, core.DynticksIdle, burnWork, 0}, // Hz switch → pool miss, fresh build
		{250, core.Periodic, syncWork, 0},     // workload switch again on the 250 Hz pair
		{250, core.Paratick, burnWork, 0},
		{250, core.DynticksIdle, fioWork, 0},                 // first devices, on recycled VMs
		{250, core.Periodic, burnWork, 0},                    // no attach: the device pools stay
		{250, core.Paratick, fioWork, 0},                     // recycled devices
		{250, core.Periodic, fioJobWork, 0},                  // guest.Steps shells: a type miss
		{250, core.Paratick, fioJobWork, 0},                  // recycled fio programs
		{250, core.DynticksIdle, benchWork, 0},               // fio shells: a type miss
		{250, core.Paratick, benchWork, 2 * sim.Millisecond}, // recycled, then abandoned
		{250, core.Periodic, benchWork, 0},                   // programs of an abandoned world
		{250, core.Paratick, parsecWork, 0},                  // sync shells: a type miss
		{250, core.DynticksIdle, parsecWork, 3 * sim.Millisecond},
		{250, core.Paratick, parsecWork, 0},
	}
	fresh := make([]snap.Digest, len(rounds))
	freshExits := make([][]uint64, len(rounds))
	for i, v := range rounds {
		e := sim.NewEngine(11)
		fresh[i], freshExits[i], _ = vmArenaRunUntil(t, nil, sim.WrapEngine(e), cfg, v.hz, v.mode, v.work, v.until)
	}

	a := &HostArena{}
	e := sim.NewEngine(11)
	se := sim.WrapEngine(e)
	var firstDevs []*iodev.Device
	for i, v := range rounds {
		e.Reset(11)
		dig, exits, devs := vmArenaRunUntil(t, a, se, cfg, v.hz, v.mode, v.work, v.until)
		if dig != fresh[i] {
			t.Fatalf("round %d (%dHz %v %v): recycled-VM digest %x, fresh %x",
				i, v.hz, v.mode, v.work, dig, fresh[i])
		}
		for j := range exits {
			if exits[j] != freshExits[i][j] {
				t.Fatalf("round %d: vm %d exits %d recycled, %d fresh", i, j, exits[j], freshExits[i][j])
			}
		}
		if v.work != fioWork {
			continue
		}
		if firstDevs == nil {
			firstDevs = devs
			continue
		}
		for _, d := range devs {
			if !slices.Contains(firstDevs, d) {
				t.Fatalf("round %d attached a new device instead of recycling a pooled one", i)
			}
		}
	}
}

// TestVMArenaRecyclesVMObjects pins that reuse actually happens: after a
// completed run, re-acquiring the same construction shape returns the same
// *VM objects, while a shape miss (different guest Hz) builds fresh and
// leaves the pooled VMs for a later matching request.
func TestVMArenaRecyclesVMObjects(t *testing.T) {
	a := &HostArena{}
	e := sim.NewEngine(3)
	se := sim.WrapEngine(e)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	vmArenaRun(t, a, se, cfg, 250, core.Periodic, burnWork)
	pooled := make(map[*VM]bool)
	for _, vm := range a.host.VMs() {
		pooled[vm] = true
	}

	e.Reset(3)
	host, err := a.NewHostOn(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := guest.DefaultConfig()
	gcfg.TickHz = 100
	miss, err := host.NewVM("miss", gcfg, []hw.CPUID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if pooled[miss] {
		t.Fatal("a 100Hz request recycled a 250Hz VM")
	}
	hit, err := host.NewVM("hit", guest.DefaultConfig(), []hw.CPUID{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !pooled[hit] {
		t.Fatal("a matching-shape request rebuilt instead of recycling")
	}
}

// TestVMArenaHoldsOneWorld pins the pool's bound. Within one batch of
// runs a world stashes its VMs next to whatever earlier worlds left
// unclaimed, so worlds that alternate between two shapes (250 Hz, 100 Hz,
// 250 Hz) each reclaim theirs. Once the batch returns (DropUnclaimedVMs),
// the arena holds one world's VMs: the last world's, which the next reset
// stashes. A rebuilt host clears the pool outright, since pooled VMs
// reference the old host's pCPUs.
func TestVMArenaHoldsOneWorld(t *testing.T) {
	a := &HostArena{}
	e := sim.NewEngine(3)
	se := sim.WrapEngine(e)
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	vmArenaRun(t, a, se, cfg, 250, core.Periodic, burnWork)
	first := slices.Clone(a.host.VMs())
	e.Reset(3)
	vmArenaRun(t, a, se, cfg, 100, core.Periodic, burnWork)
	second := slices.Clone(a.host.VMs())
	if !slices.Equal(a.vms.free, first) {
		t.Fatalf("pool holds %d VMs after the 100 Hz world, want the unclaimed 250 Hz world's %d", len(a.vms.free), len(first))
	}
	e.Reset(3)
	vmArenaRun(t, a, se, cfg, 250, core.Periodic, burnWork)
	third := slices.Clone(a.host.VMs())
	for _, vm := range third {
		if !slices.Contains(first, vm) {
			t.Fatal("the second 250 Hz world did not reclaim the first one's VMs")
		}
	}
	if !slices.Equal(a.vms.free, second) {
		t.Fatalf("pool holds %d VMs within the batch, want the unclaimed 100 Hz world's %d", len(a.vms.free), len(second))
	}

	a.DropUnclaimedVMs()
	if len(a.vms.free) != 0 {
		t.Fatalf("pool holds %d VMs after DropUnclaimedVMs, want 0", len(a.vms.free))
	}
	e.Reset(3)
	if _, err := a.NewHostOn(se, cfg); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.vms.free, third) {
		t.Fatalf("pool holds %d VMs after the batch returned, want the last world's %d", len(a.vms.free), len(third))
	}

	e.Reset(3)
	other := cfg
	other.HostHz = cfg.HostHz * 2
	if _, err := a.NewHostOn(se, other); err != nil {
		t.Fatal(err)
	}
	if len(a.vms.free) != 0 {
		t.Fatalf("pool holds %d VMs after the host was rebuilt, want 0", len(a.vms.free))
	}
}

// TestVMArenaReuseAfterAbandonedRun covers the snapshot-probe path: a run
// abandoned mid-flight (tasks still blocked on locks and barriers, timers
// armed, IRQs pending) stashes its dirty VMs uncleaned; the sanitize-at-take
// reset must still produce VMs byte-identical to fresh construction.
func TestVMArenaReuseAfterAbandonedRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	freshDig, freshExits, _ := vmArenaRun(t, nil, sim.WrapEngine(sim.NewEngine(5)), cfg, 250, core.Paratick, syncWork)

	a := &HostArena{}
	e := sim.NewEngine(5)
	se := sim.WrapEngine(e)
	host, err := a.NewHostOn(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		gcfg := guest.DefaultConfig()
		gcfg.Mode = core.Paratick
		vm, err := host.NewVM("vm", gcfg, []hw.CPUID{hw.CPUID(2 * i), hw.CPUID(2*i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		k := vm.Kernel()
		l := k.NewLock("l")
		bar := k.NewBarrier("b", 2)
		for task := 0; task < 2; task++ {
			k.Spawn("sync", task, guest.Steps(
				guest.Acquire(l),
				guest.Compute(5*sim.Millisecond),
				guest.Release(l),
				guest.JoinBarrier(bar),
			))
		}
		vm.Start()
	}
	// Abandon mid-run: one task holds each lock, its sibling is blocked, the
	// barrier has no arrivals, ticks and deadline timers are armed.
	se.RunUntil(2 * sim.Millisecond)
	for _, vm := range host.VMs() {
		if done, _ := vm.WorkloadDone(); done {
			t.Fatal("abandon point too late: workload already finished")
		}
	}

	e.Reset(5)
	dig, exits, _ := vmArenaRun(t, a, se, cfg, 250, core.Paratick, syncWork)
	if dig != freshDig {
		t.Fatalf("post-abandon recycled digest %x, fresh %x", dig, freshDig)
	}
	for i := range exits {
		if exits[i] != freshExits[i] {
			t.Fatalf("vm %d exits %d after abandoned-run reuse, %d fresh", i, exits[i], freshExits[i])
		}
	}
}

// TestHostArenaRebuildsOnShapeChange checks the pool only reuses when the
// coordinator and machine shape match.
func TestHostArenaRebuildsOnShapeChange(t *testing.T) {
	a := &HostArena{}
	se := sim.WrapEngine(sim.NewEngine(1))
	cfg := DefaultConfig()
	cfg.Topology = hw.SmallTopology()
	h1, err := a.NewHostOn(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same everything → reuse.
	se.Root().Reset(1)
	h2, err := a.NewHostOn(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h1 {
		t.Fatal("matching shape did not reuse the pooled host")
	}
	// Different topology → rebuild.
	big := cfg
	big.Topology = hw.PaperTopology()
	se.Root().Reset(1)
	h3, err := a.NewHostOn(se, big)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("topology change reused the pooled host")
	}
	// Different coordinator → rebuild.
	other := sim.WrapEngine(sim.NewEngine(1))
	h4, err := a.NewHostOn(other, big)
	if err != nil {
		t.Fatal(err)
	}
	if h4 == h3 {
		t.Fatal("coordinator change reused the pooled host")
	}
	// Nil arena always builds fresh.
	var nilA *HostArena
	h5, err := nilA.NewHostOn(other, big)
	if err != nil {
		t.Fatal(err)
	}
	if h5 == h4 {
		t.Fatal("nil arena reused a host")
	}
}

// laneArenaConfig is the two-socket host laneArenaRun builds.
func laneArenaConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = hw.Topology{Sockets: 2, CPUsPerSocket: 4, CrossSocketTax: 1.35}
	return cfg
}

// laneArenaRun builds a lane-mode host on se through the arena — one
// compute VM per socket and a doorbell IPI stream from socket 0's VM to
// socket 1's — and runs it until the given instant. It returns the host,
// the digests of every lane engine and of the host's own checkpoint (VMs,
// scheduler, pCPUs, in-flight IRQs, streams), and each VM's counters.
func laneArenaRun(t *testing.T, a *HostArena, se *sim.ShardedEngine, until sim.Time) (*Host, []snap.Digest, []metrics.Counters) {
	t.Helper()
	cfg := laneArenaConfig()
	host, err := a.NewHostOn(se, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for socket := 0; socket < 2; socket++ {
		first := hw.CPUID(socket * cfg.Topology.CPUsPerSocket)
		vm, err := host.NewVM("vm", guest.DefaultConfig(), []hw.CPUID{first, first + 1})
		if err != nil {
			t.Fatal(err)
		}
		vm.Kernel().Spawn("burn", 0, guest.Steps(guest.Compute(3*sim.Millisecond)))
	}
	vms := host.VMs()
	if err := host.AddIPIStream(vms[0], vms[1], 1, 500*sim.Microsecond, 2*sim.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	for _, vm := range vms {
		vm.Start()
	}
	se.RunUntil(until)
	var digests []snap.Digest
	for l := 0; l < se.Lanes(); l++ {
		digests = append(digests, se.Engine(l).DigestState())
	}
	var enc snap.Encoder
	if err := host.Save(&enc); err != nil {
		t.Fatal(err)
	}
	digests = append(digests, snap.HashBytes(enc.Bytes()))
	var counters []metrics.Counters
	for _, vm := range vms {
		counters = append(counters, *vm.Counters())
	}
	return host, digests, counters
}

// TestHostArenaLaneReuseMatchesFresh is the lane-mode digest audit: a host
// abandoned while a cross-lane IRQ is in flight, then reused through the
// same arena, must run byte-identically — every lane engine's digest, the
// host checkpoint's digest, and every VM's counters — to a freshly built
// one. It covers Host.reset's
// lane branch: the in-flight lists, the IPI streams, and the barrier
// delivery hook. The reused host must run its stream on the stream object
// the abandoned run built, which the reset left naming no VM.
func TestHostArenaLaneReuseMatchesFresh(t *testing.T) {
	const seed, done = 13, 20 * sim.Millisecond
	newSE := func() *sim.ShardedEngine {
		se, err := sim.NewSharded(seed, 2, 1, sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return se
	}
	_, wantDigests, wantCounters := laneArenaRun(t, nil, newSE(), done)

	a := &HostArena{}
	se := newSE()
	abandoned, _, _ := laneArenaRun(t, a, se, 2*sim.Millisecond)
	if len(abandoned.inflight[1]) == 0 {
		t.Fatal("abandon point has no remote IRQ in flight; the audit would be vacuous")
	}
	streams := slices.Clone(abandoned.streams)
	se.Reset(seed)
	if _, err := a.NewHostOn(se, laneArenaConfig()); err != nil {
		t.Fatal(err)
	}
	for i, st := range abandoned.streamPool {
		if st.src != nil || st.dst != nil || st.sent != 0 || st.ev != (sim.Event{}) || st.fn == nil {
			t.Fatalf("pooled stream %d is not blank but for its handler: %+v", i, *st)
		}
	}
	se.Reset(seed)
	host, digests, counters := laneArenaRun(t, a, se, done)
	if host != abandoned {
		t.Fatal("the arena rebuilt the host instead of reusing it")
	}
	if !slices.Equal(host.streams, streams) {
		t.Fatal("the reused host built new IPI stream objects instead of recycling its own")
	}
	for _, vm := range host.VMs() {
		if finished, _ := vm.WorkloadDone(); !finished {
			t.Fatal("workload did not finish")
		}
	}
	for i := range wantDigests {
		if digests[i] != wantDigests[i] {
			t.Fatalf("digest %d (lanes, then host): reused %v, fresh %v", i, digests[i], wantDigests[i])
		}
	}
	for i := range wantCounters {
		if counters[i] != wantCounters[i] {
			t.Fatalf("vm %d: counters differ on reuse:\n got %+v\nwant %+v", i, counters[i], wantCounters[i])
		}
	}
}

// TestHostResetRecyclesInflightIRQs pins the remote-IRQ pool: deliveries
// abandoned in flight go back to Host.freeIRQ on reset, fired deliveries go
// back when they fire, and every pooled record is blank except for its
// pre-bound fire handler.
func TestHostResetRecyclesInflightIRQs(t *testing.T) {
	const seed = 13
	se, err := sim.NewSharded(seed, 2, 1, sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a := &HostArena{}
	host, _, _ := laneArenaRun(t, a, se, 2*sim.Millisecond)
	abandoned := slices.Clone(host.inflight[1])
	if len(abandoned) == 0 {
		t.Fatal("abandon point has no remote IRQ in flight; the audit would be vacuous")
	}
	se.Reset(seed)
	if _, err := a.NewHostOn(se, laneArenaConfig()); err != nil {
		t.Fatal(err)
	}
	for _, r := range abandoned {
		if !slices.Contains(host.freeIRQ[1], r) {
			t.Fatal("reset dropped an abandoned delivery instead of pooling it")
		}
	}
	checkBlankIRQPool(t, host)

	se.Reset(seed)
	laneArenaRun(t, a, se, 20*sim.Millisecond)
	checkBlankIRQPool(t, host)
	sent := host.streams[0].sent
	se.Reset(seed)
	if _, err := a.NewHostOn(se, laneArenaConfig()); err != nil {
		t.Fatal(err)
	}
	if records := uint64(len(host.freeIRQ[1])); records == 0 || records >= sent {
		t.Fatalf("%d deliveries used %d records; fired deliveries are not being recycled", sent, records)
	}
	checkBlankIRQPool(t, host)
}

// checkBlankIRQPool fails when a pooled delivery record retains anything
// beyond its fire handler.
func checkBlankIRQPool(t *testing.T, h *Host) {
	t.Helper()
	for lane, free := range h.freeIRQ {
		for i, r := range free {
			if r.vm != 0 || r.vcpu != 0 || r.vec != 0 || r.ev != (sim.Event{}) {
				t.Fatalf("lane %d: pooled remote IRQ %d retains state: %+v", lane, i, *r)
			}
			if r.fire == nil {
				t.Fatalf("lane %d: pooled remote IRQ %d lost its fire handler", lane, i)
			}
		}
	}
}

// TestFreshHostAllocs bounds the allocations of building a host without an
// arena — what nil-arena runs, snapshot thaws and shard fleets pay per
// world. Each pCPU binds one pre-bound completion handler; a handler per
// completion kind cost five more allocations per pCPU (884 rather than 484
// on the paper's 80-CPU machine).
func TestFreshHostAllocs(t *testing.T) {
	se := sim.WrapEngine(sim.NewEngine(1))
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(20, func() {
		se.Reset(1)
		if _, err := NewHostOn(se, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 580 {
		t.Fatalf("building a fresh %d-pCPU host took %v allocations, want at most 580",
			cfg.Topology.NumCPUs(), allocs)
	}
	t.Logf("%v allocations per fresh host", allocs)
}
