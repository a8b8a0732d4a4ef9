package experiment

import (
	"bytes"
	"testing"

	"paratick/internal/sim"
	"paratick/internal/trace"
)

// shardObservation is everything a differential run compares: the rendered
// report, the canonical trace dump, and a mid-run checkpoint. All three
// must be byte-identical for every shard count.
type shardObservation struct {
	report     string
	traceDump  string
	checkpoint []byte
}

// observeShardRun executes the scenario at the given shard count and
// collects the observation. The trace is attached through the host so the
// per-lane buffers and their canonical merge are exercised.
func observeShardRun(t *testing.T, s Scenario, seed uint64, shards int, ckAt sim.Time) shardObservation {
	t.Helper()
	s.Shards = shards
	w, err := buildWorld(s, seed, nil)
	if err != nil {
		t.Fatalf("shards=%d: build: %v", shards, err)
	}
	w.host.SetTracer(trace.NewBuffer(2048))
	res := &ScenarioResult{}
	if err := w.runInto(nil, res); err != nil {
		t.Fatalf("shards=%d: run: %v", shards, err)
	}
	fleet := &ShardFleetResult{VMs: len(s.VMs), Quantum: s.Quantum, Results: res.Results, Events: res.Events}
	ck, err := CheckpointScenario(s, seed, ckAt)
	if err != nil {
		t.Fatalf("shards=%d: checkpoint: %v", shards, err)
	}
	return shardObservation{
		report:     fleet.Render(),
		traceDump:  w.host.Tracer().Dump(),
		checkpoint: ck.Bytes(),
	}
}

// diffObservations fails the test on the first byte difference.
func diffObservations(t *testing.T, label string, serial, sharded shardObservation, shards int) {
	t.Helper()
	if sharded.report != serial.report {
		t.Errorf("%s: shards=%d report differs from serial:\n--- serial ---\n%s\n--- shards=%d ---\n%s",
			label, shards, serial.report, shards, sharded.report)
	}
	if sharded.traceDump != serial.traceDump {
		t.Errorf("%s: shards=%d trace differs from serial", label, shards)
	}
	if !bytes.Equal(sharded.checkpoint, serial.checkpoint) {
		t.Errorf("%s: shards=%d checkpoint differs from serial (%d vs %d bytes)",
			label, shards, len(sharded.checkpoint), len(serial.checkpoint))
	}
}

// TestShardedDifferential pins the tentpole contract over a matrix of 40
// seeded fleet scenarios: for every (seed, fleet size, quantum, IPI
// density) the report, the canonical trace, and a mid-run checkpoint are
// byte-identical at shards 1, 2, 4, and 8 (8 clamps to the 4 lanes — the
// clamp itself must not change bytes either).
func TestShardedDifferential(t *testing.T) {
	type cfg struct {
		vms     int
		quantum sim.Time
		ipis    int // cross-IPI streams kept (ring prefix)
	}
	cfgs := []cfg{
		{vms: 4, quantum: sim.Millisecond, ipis: 4},
		{vms: 6, quantum: 500 * sim.Microsecond, ipis: 6},
		{vms: 8, quantum: 2 * sim.Millisecond, ipis: 2},
		{vms: 5, quantum: sim.Millisecond, ipis: 0},
	}
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 42, 1234567, 987654321}
	if testing.Short() {
		cfgs = cfgs[:2]
		seeds = seeds[:2]
	}
	n := 0
	for _, c := range cfgs {
		for _, seed := range seeds {
			n++
			opts := DefaultOptions()
			opts.Scale = 0.01
			opts.Quantum = c.quantum
			s, err := ShardFleetScenario(opts, c.vms)
			if err != nil {
				t.Fatal(err)
			}
			s.CrossIPI = s.CrossIPI[:c.ipis]
			label := s.Name
			// Freeze at the first barrier: safely before the ~3.4 ms (at
			// scale 0.01) workload completion for every quantum in the
			// matrix.
			ckAt := c.quantum
			serial := observeShardRun(t, s, seed, 1, ckAt)
			for _, shards := range []int{2, 4, 8} {
				diffObservations(t, label, serial, observeShardRun(t, s, seed, shards, ckAt), shards)
			}
			if t.Failed() {
				t.Fatalf("scenario %d (vms=%d quantum=%v ipis=%d seed=%d) diverged",
					n, c.vms, c.quantum, c.ipis, seed)
			}
		}
	}
	t.Logf("%d scenarios byte-identical at shards {1,2,4,8}", n)
}

// TestShardedCheckpointCrossResume pins shard-count independence of the
// checkpoint format end to end: a checkpoint taken at shards=4 resumes at
// shards=1 (and vice versa) with byte-identical final reports.
func TestShardedCheckpointCrossResume(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.01
	s, err := ShardFleetScenario(opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	finish := func(takeShards, resumeShards int) string {
		take := s
		take.Shards = takeShards
		ck, err := CheckpointScenario(take, 7, 2*s.Quantum)
		if err != nil {
			t.Fatal(err)
		}
		resume := s
		resume.Shards = resumeShards
		res, err := ResumeScenario(resume, ck)
		if err != nil {
			t.Fatal(err)
		}
		fleet := &ShardFleetResult{VMs: len(s.VMs), Quantum: s.Quantum, Results: res.Results, Events: res.Events}
		return fleet.Render()
	}
	straight := finish(1, 1)
	for _, pair := range [][2]int{{1, 4}, {4, 1}, {4, 4}} {
		if got := finish(pair[0], pair[1]); got != straight {
			t.Errorf("checkpoint taken at shards=%d resumed at shards=%d diverges from serial:\n%s\nwant:\n%s",
				pair[0], pair[1], got, straight)
		}
	}
}

// TestShardedRaceSmoke runs a small multi-shard fleet — it exists so `go
// test -race -short` drives the shard goroutines, the mailbox drain, and
// the barrier hand-off under the race detector on every CI run.
func TestShardedRaceSmoke(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.002
	opts.Shards = 4
	if _, err := RunShardFleet(opts, 8); err != nil {
		t.Fatal(err)
	}
}

// FuzzShardedDifferential drives the byte-identity contract over arbitrary
// (quantum, shard count, cross-IPI density) combinations: whatever the
// fuzzer picks, the sharded report and checkpoint must match the serial
// lane schedule exactly.
func FuzzShardedDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint16(1000), uint8(2), uint8(4))
	f.Add(uint64(42), uint8(6), uint16(500), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(5), uint16(2000), uint8(8), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, vms uint8, quantumMicros uint16, shards uint8, ipis uint8) {
		nv := 4 + int(vms)%5 // 4..8 VMs
		opts := DefaultOptions()
		opts.Scale = 0.004
		// 100 µs – 1 ms: the first barrier must land before the ~1.4 ms (at
		// scale 0.004) workload completion, or there is no instant to
		// checkpoint at.
		opts.Quantum = sim.Time(int64(quantumMicros)%900+100) * sim.Microsecond
		s, err := ShardFleetScenario(opts, nv)
		if err != nil {
			t.Fatal(err)
		}
		s.CrossIPI = s.CrossIPI[:int(ipis)%(nv+1)]
		ns := 2 + int(shards)%7 // 2..8 shards, clamped to lanes by buildWorld
		ckAt := s.Quantum
		serial := observeShardRun(t, s, seed, 1, ckAt)
		diffObservations(t, s.Name, serial, observeShardRun(t, s, seed, ns, ckAt), ns)
	})
}
