package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paratick/internal/core"
	"paratick/internal/guest"
	"paratick/internal/kvm"
	"paratick/internal/metrics"
	"paratick/internal/sched"
	"paratick/internal/sim"
	"paratick/internal/snap"
	"paratick/internal/workload"
)

// TestSnapshotProbeGolden is the tentpole differential gate: enabling the
// mid-run snapshot probe — which saves every straight run at 500 µs,
// restores the state into a freshly built world, and continues on the
// restored copy — must not change a single byte of any runner's rendered
// output, at any worker count. A field the snapshot misses, a closure wired
// to the wrong object, or a pending event re-armed at the wrong coordinate
// all diverge the continued run and fail the byte comparison.
func TestSnapshotProbeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden check is slow")
	}
	straight := renderAll(t, 1)
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Scale = 0.05
		opts.Workers = workers
		opts.Meter = &metrics.Meter{}
		opts.SnapshotProbe = 500 * sim.Microsecond
		probed := renderAllOpts(t, opts)
		if probed != straight {
			t.Fatalf("probe-on output diverges from straight-through at workers=%d:\n%s",
				workers, firstDiff(straight, probed))
		}
	}
}

// TestSnapshotProbeAdoptsForkedArms is the probe differential for
// warm-start fork arms. The 15 ms probe lands after the crossover and §4.1
// fork instants (12.5 ms at scale 0.05) and inside the arms' ~100 ms runs,
// so each of those arms is frozen, thawed into a rebuilt world with its arm
// hook re-applied, and continued on the thawed copy. A thaw that loses the
// arm (a device profile, an entry hook) diverges the rendered output.
func TestSnapshotProbeAdoptsForkedArms(t *testing.T) {
	const probe = 15 * sim.Millisecond
	render := func(opts Options) (string, *CrossoverResult, *AblationResult) {
		t.Helper()
		cross, err := RunCrossover(opts)
		if err != nil {
			t.Fatalf("crossover (probe %v): %v", opts.SnapshotProbe, err)
		}
		abl, err := RunAllAblations(opts)
		if err != nil {
			t.Fatalf("ablations (probe %v): %v", opts.SnapshotProbe, err)
		}
		freq, err := RunFrequencyMismatchAblation(opts)
		if err != nil {
			t.Fatalf("§4.1 ablation (probe %v): %v", opts.SnapshotProbe, err)
		}
		return cross.Render() + cross.Table().CSV() + abl, cross, freq
	}
	opts := DefaultOptions()
	opts.Scale = 0.05
	straight, cross, freq := render(opts)

	// The probe must fall strictly inside every checked arm, or the
	// comparison below passes without thawing anything. The fork instants
	// restate the runners' warmup lengths: dur/8 and work/8.
	if fork := cross.Duration / 8; fork >= probe || cross.Duration <= probe {
		t.Fatalf("crossover arms run %v..%v, probe %v is not inside", fork, cross.Duration, probe)
	}
	if fork := sim.Time(float64(200*sim.Millisecond)*opts.Scale*10) / 8; fork >= probe {
		t.Fatalf("§4.1 arms fork at %v, not before probe %v", fork, probe)
	}
	for _, row := range freq.Rows {
		if row.Runtime <= probe {
			t.Fatalf("§4.1 arm %q ends at %v, before probe %v", row.Variant, row.Runtime, probe)
		}
	}

	opts.SnapshotProbe = probe
	if probed, _, _ := render(opts); probed != straight {
		t.Fatalf("probe at %v diverges forked arms: %s", probe, firstDiff(straight, probed))
	}
}

// TestCheckpointResumeMatchesStraightRun pins the public checkpoint API:
// warm up, freeze, rebuild, restore, and run to completion must produce a
// result deeply equal to running straight through — including the restored
// event counter, so a resumed run reports the same total events.
func TestCheckpointResumeMatchesStraightRun(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.02
	s := ReferenceScenario(opts)
	straight, err := RunScenario(s, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := CheckpointScenario(s, opts.Seed, 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeScenario(s, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight, resumed) {
		t.Fatalf("resumed result differs from straight run:\nstraight: %+v\nresumed:  %+v", straight, resumed)
	}
}

// TestCheckpointAfterMigrationResumes pins the fingerprint to each VM's
// pinning rather than to where its vCPUs run: under sched.Fair an idle pCPU
// steals a socket sibling's waiter, so by the checkpoint some vCPU is homed
// off its pinning, and the checkpoint must still resume into the scenario
// it came from and finish like the straight run.
func TestCheckpointAfterMigrationResumes(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.SchedPolicy = sched.Fair
	canneal, err := workload.ProfileByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	s := opts.oneVM("canneal", VMSpec{VCPUs: 4, Setup: func(vm *kvm.VM) error {
		dev, err := vm.AttachDevice("disk0", opts.Device)
		if err != nil {
			return err
		}
		_, err = canneal.SpawnParallel(vm.Kernel(), 4, dev, opts.Scale)
		return err
	}})
	const at = 500 * sim.Microsecond
	w, err := buildWorld(s, opts.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.se.RunUntil(at)
	pinning, err := s.VMs[0].placement(w.cfg.Topology)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for j, v := range w.vms[0].VCPUs() {
		if v.PCPU().ID() != pinning[j] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no vCPU is off its pinning at %v, so the resume below checks nothing", at)
	}
	ck, err := w.freeze()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeScenario(s, ck)
	if err != nil {
		t.Fatalf("checkpoint with %d migrated vCPUs: %v", moved, err)
	}
	straight, err := RunScenario(s, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight, resumed) {
		t.Fatalf("resumed result differs from straight run:\nstraight: %+v\nresumed:  %+v", straight, resumed)
	}
}

// TestCheckpointContainerRoundTrip pins the on-disk container: serialize,
// parse, re-serialize must be byte-identical, and a truncated or mislabeled
// container must be rejected rather than half-parsed.
func TestCheckpointContainerRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.02
	s := ReferenceScenario(opts)
	ck, err := CheckpointScenario(s, opts.Seed, 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	data := ck.Bytes()
	parsed, err := LoadCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Seed() != ck.Seed() || parsed.At() != ck.At() || parsed.Events() != ck.Events() {
		t.Fatalf("container fields drifted: %d/%v/%d vs %d/%v/%d",
			parsed.Seed(), parsed.At(), parsed.Events(), ck.Seed(), ck.At(), ck.Events())
	}
	if !bytes.Equal(parsed.Bytes(), data) {
		t.Fatal("container re-serialization is not byte-identical")
	}
	if _, err := LoadCheckpoint(data[:len(data)/2]); err == nil {
		t.Fatal("truncated container accepted")
	}
	if _, err := LoadCheckpoint(nil); err == nil {
		t.Fatal("empty container accepted")
	}
	res, err := ResumeScenario(s, parsed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events <= parsed.Events() {
		t.Fatalf("resumed run fired no events past the checkpoint: %d <= %d", res.Events, parsed.Events())
	}
}

// TestResumeRejectsMismatchedScenario checks the fingerprint guard: a
// checkpoint must not restore into a structurally different world.
func TestResumeRejectsMismatchedScenario(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.02
	s := ReferenceScenario(opts)
	ck, err := CheckpointScenario(s, opts.Seed, 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	other := s
	other.VMs = append([]VMSpec(nil), s.VMs...)
	other.VMs[0].Mode = core.Paratick
	if _, err := ResumeScenario(other, ck); err == nil {
		t.Fatal("checkpoint restored into a structurally different scenario")
	}
}

// TestWarmForkSavings asserts the acceptance floor: warm-started forking
// must at least halve the simulated warmup events on the sweeps that fork
// (the crossover's 8 device-latency arms share one warmup per mode, so the
// factor there is the arm count).
func TestWarmForkSavings(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	cross, err := RunCrossover(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSavings := func(name string, w WarmupStats) {
		t.Helper()
		if w.Groups == 0 || w.GroupEvents == 0 {
			t.Fatalf("%s: no warm forks recorded: %+v", name, w)
		}
		factor := float64(w.GroupEvents+w.SavedEvents) / float64(w.GroupEvents)
		if factor < 2 {
			t.Fatalf("%s: warmup-event savings %.2fx < 2x: %+v", name, factor, w)
		}
	}
	checkSavings("crossover", cross.Warmup)

	abl, err := RunHaltPollAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSavings("haltpoll ablation", abl.Warmup)
}

// FuzzSnapshotRoundTrip drives freeze→thaw→re-freeze at arbitrary
// mid-run instants and modes: the re-saved bytes and the engine state digest
// must both match the original exactly, whatever the freeze point cuts
// through (mid-I/O, mid-tick, pre-boot, post-completion).
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(0))
	f.Add(uint64(7), uint16(2500), uint8(1))
	f.Add(uint64(42), uint16(900), uint8(2))
	f.Add(uint64(1234567), uint16(4999), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, atMicros uint16, modeSel uint8) {
		modes := []core.Mode{core.Periodic, core.DynticksIdle, core.Paratick}
		opts := DefaultOptions()
		opts.Scale = 0.02
		s := opts.oneVM("fuzz", VMSpec{
			Mode:  modes[int(modeSel)%len(modes)],
			VCPUs: 2,
			Setup: fioSetup(opts),
		})
		at := sim.Time(int64(atMicros)%5000+1) * sim.Microsecond
		w1, err := buildWorld(s, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		w1.se.RunUntil(at)
		ck, err := w1.freeze()
		if err != nil {
			t.Fatal(err)
		}
		w2, err := thaw(s, ck, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := w2.se.Root().DigestState(), w1.se.Root().DigestState(); g != w {
			t.Fatalf("engine digest mismatch after restore at %v: %v vs %v", at, g, w)
		}
		again, err := w2.freeze()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ck.payload, again.payload) {
			t.Fatalf("snapshot round-trip diverged at %v: %d vs %d bytes", at, len(ck.payload), len(again.payload))
		}
	})
}

// FuzzThawCheckpoint feeds hostile bytes to the one decode path and runs
// whatever it accepts: LoadCheckpoint parses the container, thaw rebuilds
// the reference scenario (serial and lane mode, matching the two committed
// reference checkpoints that seed the corpus) and decodes the payload into
// it, and an accepted world then runs toward its deadline, 100 ms, under an
// event budget counted through the dispatch observer. The seeds dispatch
// about 8,200 events to that deadline, so a world that spends the budget
// is one the decoder should have refused: it hangs, or restored state
// drives it far past anything the run loop produces. Every input must be
// refused with an error or run within the budget; none may panic.
func FuzzThawCheckpoint(f *testing.F) {
	const budget = 200_000
	opts := DefaultOptions()
	opts.Scale = 0.05
	serial := ReferenceScenario(opts)
	serial.Duration = 100 * sim.Millisecond
	opts.Quantum = sim.Millisecond
	lanes := ReferenceScenario(opts)
	lanes.Duration = serial.Duration
	run := func(t testing.TB, s Scenario, ck *Checkpoint) error {
		w, err := thaw(s, ck, nil, nil)
		if err != nil {
			return err
		}
		events, spent := 0, sim.Time(0)
		w.se.SetObserver(func(_ string, when sim.Time) {
			if events++; events == budget {
				spent = when
				// Lane mode honors the coordinator's stop only at the
				// next barrier; stopping each lane ends the quantum too.
				w.se.Stop()
				for lane := 0; lane < w.se.Lanes(); lane++ {
					w.se.Engine(lane).Stop()
				}
			}
		})
		if err := w.runInto(nil, &ScenarioResult{}); err != nil {
			t.Fatalf("thawed %s world failed its run: %v", s.Name, err)
		}
		if events >= budget {
			t.Fatalf("thawed %s world spent the %d-event budget by %v", s.Name, budget, spent)
		}
		return nil
	}
	for name, s := range map[string]Scenario{
		"reference-checkpoint.snap":       serial,
		"reference-checkpoint-lanes.snap": lanes,
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "paratick-bench", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		// An unmutated seed must restore and run, or the corpus starts
		// from inputs that never reach the payload decoder.
		ck, err := LoadCheckpoint(data)
		if err == nil {
			err = run(f, s, ck)
		}
		if err != nil {
			f.Fatalf("seed %s does not thaw: %v", name, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := LoadCheckpoint(data)
		if err != nil {
			return
		}
		for _, s := range []Scenario{serial, lanes} {
			if run(t, s, ck) == nil {
				return
			}
		}
	})
}

// TestLoadCheckpointRefusesVersion1 relabels the reference checkpoint as
// format version 1, whose records stored task lists and pCPU flags beside
// the facts they restate. No v1 decoder is kept, so the container must be
// refused with an error naming both versions.
func TestLoadCheckpointRefusesVersion1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "paratick-bench", "testdata", "reference-checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	var v1 snap.Encoder
	v1.U32(1)
	old := append([]byte(nil), data...)
	copy(old[len(snap.Magic):], v1.Bytes())
	want := fmt.Sprintf("version 1 (want %d)", snap.Version)
	if _, err := LoadCheckpoint(old); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("v1 checkpoint: err = %v, want one containing %q", err, want)
	}
}

// referenceFields holds the payload offsets of the reference checkpoint's
// fields TestCorruptCheckpointNeverPanics flips, found by walking from
// section markers the layout the Snap bodies write: the engine clock and
// sequence counter, the guest deadline timer's event, the first queued
// guest segment (an io-submit) with its request and device, the disk's
// in-service count, and the host-tick and completion events of the busy
// pCPU 0 and the host tick of the idle pCPU 40.
type referenceFields struct {
	now, seq             int
	guestTimer           int // the event's when; its seq follows
	segKind              int
	reqBytes, reqVCPU    int
	segDev               int
	running              int
	hostTick, done, idle int
}

// findReferenceFields locates the referenceFields in payload.
func findReferenceFields(t *testing.T, payload []byte) referenceFields {
	t.Helper()
	var f referenceFields
	var d *snap.Decoder
	pos := func() int { return len(payload) - d.Remaining() }
	at := func(section string) {
		var marker snap.Encoder
		marker.Section(section)
		off := bytes.Index(payload, marker.Bytes())
		if off < 0 {
			t.Fatalf("no %s section in the reference checkpoint", section)
		}
		d = snap.NewDecoder(payload[off:])
		d.Section(section)
	}
	skip := func(n int) {
		for ; n > 0; n-- {
			d.U8()
		}
	}

	at("engine")
	d.U64() // span word
	f.now = pos()
	d.I64()
	f.seq = pos()

	at("dtimer:guest-timer")
	skip(16) // arm and expiry counts
	if !d.Bool() {
		t.Fatal("the reference checkpoint's guest timer is not armed")
	}
	f.guestTimer = pos()

	at("guest")
	skip(32 + 1)            // RNG state, started
	skip(24 * int(d.U32())) // locks: holder and two counters
	skip(16 * int(d.U32())) // barriers: parties and cycles
	skip(16 * int(d.U32())) // conds: two counters
	if n := d.U32(); n != 1 {
		t.Fatalf("the reference guest has %d vCPUs, want 1", n)
	}
	skip(8 + 16 + 3 + 8 + 1 + 8 + 8 + 8) // policy, wheel clock, flags, timer, RCU, switches, last tick
	if n := d.U32(); n == 0 {
		t.Fatal("the reference vCPU has no queued segment")
	}
	f.segKind = pos()
	if kind := guest.SegKind(d.U8()); kind != guest.SegIOSubmit {
		t.Fatalf("the reference vCPU's first queued segment is %v, want an io-submit", kind)
	}
	_ = d.String() // label
	f.segDev = pos()
	skip(8 + 2) // device, request write and sequential flags
	f.reqBytes = pos()
	d.I64()
	f.reqVCPU = pos()

	at("iodev:disk0")
	skip(32 + 32) // RNG state, counters
	f.running = pos()

	hostTick := func(pcpu string) int { // the pCPU's host-tick event
		at(pcpu)
		d.Section("ptimer:host-tick")
		skip(8 + 8) // period, ticks
		if !d.Bool() {
			t.Fatalf("the reference checkpoint's %s has no host tick pending", pcpu)
		}
		return pos()
	}
	f.hostTick = hostTick("pcpu:0")
	skip(16)
	if ph := d.U8(); ph == 0 {
		t.Fatal("the reference checkpoint's pCPU 0 has no completion pending")
	}
	f.done = pos()
	f.idle = hostTick("pcpu:40")
	if err := d.Err(); err != nil {
		t.Fatalf("walking the reference checkpoint: %v", err)
	}
	return f
}

// TestCorruptCheckpointNeverPanics resumes the committed reference
// checkpoint with single bit flips in fields that once reached a panic —
// restored event coordinates behind the clock or ahead of the sequence
// counter, an unknown segment kind, a negative request size, a request
// from a vCPU that does not exist, an io-submit segment with no device —
// and with truncated payloads. Each case must either fail with an error or
// run to completion; none may panic.
func TestCorruptCheckpointNeverPanics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "paratick-bench", "testdata", "reference-checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Scale = 0.05
	s := ReferenceScenario(opts)
	n := len(ck.payload)
	f := findReferenceFields(t, ck.payload)

	type corruption struct {
		name    string
		payload []byte
	}
	var cases []corruption
	span := func(off, from, to int) []int { // bytes from..to of the field at off
		var out []int
		for i := from; i <= to; i++ {
			out = append(out, off+i)
		}
		return out
	}
	var offs []int
	for _, group := range [][]int{
		// guest timer behind the clock / ahead of the seq counter
		span(f.now, 3, 6), {f.seq},
		{f.guestTimer + 2, f.guestTimer + 7}, span(f.guestTimer+8, 1, 7),
		{f.segKind},           // segment kind
		{f.reqBytes + 7},      // request bytes
		span(f.reqVCPU, 0, 7), // request vCPU
		{f.segDev + 7},        // io-submit segment without its device
		{f.running, f.hostTick + 2, f.done + 1, f.idle + 1}, // device, host tick, and pCPU event coordinates
	} {
		offs = append(offs, group...)
	}
	for _, off := range offs {
		p := append([]byte(nil), ck.payload...)
		p[off] ^= 0x80
		cases = append(cases, corruption{fmt.Sprintf("flip@%d", off), p})
	}
	for _, cut := range []int{0, 1, 7, 100, n / 2, n - 1} {
		cases = append(cases, corruption{fmt.Sprintf("truncate@%d", cut), ck.payload[:cut]})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("resume panicked: %v", r)
				}
			}()
			bad := *ck
			bad.payload = c.payload
			if _, err := ResumeScenario(s, &bad); err != nil {
				t.Logf("rejected: %v", err)
			}
		})
	}
}
