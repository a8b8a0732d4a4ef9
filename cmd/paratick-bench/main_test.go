package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1Smoke(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-run", "table1", "-scale", "0.02", "-workers", "1"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-run", "bogus"}, &b); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-device", "floppy"}, &b); err == nil {
		t.Error("unknown device accepted")
	}
}

// TestRunHostileFlags pins that every hostile flag value is refused before
// anything is printed: a NaN scale used to print the Table 1 header and
// then hang, an infinite one rendered every bar at +0.0%, and -shards
// without -quantum printed the header and then the error. A huge -workers
// value is not tried here: the worker pool clamps it to the job count.
func TestRunHostileFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "-1"},
		{"-shards", "4"},
		{"-run", "table1", "-shards", "4"},
		{"-quantum", "-1ms"},
		{"-repeats", "-1"},
		{"-workers", "-1"},
		{"-snapshot-probe", "-1ms"},
		{"-device", "floppy"},
		{"-run", "nope"},
		{"-run", "shardfleet", "-scale", "NaN"},
		{"-run", "shardfleet", "-quantum", "-1ms"},
	} {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("%v accepted", args)
		}
		if b.Len() != 0 {
			t.Errorf("%v printed before failing:\n%s", args, b.String())
		}
	}
}

func TestRunManifestAndBenchJSON(t *testing.T) {
	dir := t.TempDir()
	mf := filepath.Join(dir, "manifest.json")
	bj := filepath.Join(dir, "bench.json")
	var b strings.Builder
	err := run([]string{"-run", "table1", "-scale", "0.02", "-workers", "2",
		"-manifest", mf, "-bench-json", bj}, &b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Seed != 1 || m.Scale != 0.02 || m.Workers != 2 {
		t.Fatalf("manifest fields wrong: %+v", m)
	}
	if m.Runs == 0 || m.Events == 0 || m.WallNs <= 0 {
		t.Fatalf("manifest telemetry empty: %+v", m)
	}
	if m.GoVersion == "" {
		t.Fatal("manifest missing go version")
	}
	if len(m.Experiments) != 1 || m.Experiments[0].Name != "table1" {
		t.Fatalf("manifest experiments wrong: %+v", m.Experiments)
	}
	var recs []benchRecord
	if bdata, err := os.ReadFile(bj); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(bdata, &recs); err != nil {
		t.Fatalf("bench-json invalid: %v", err)
	}
}

// The -trace-out file must be valid Chrome JSON and byte-identical across
// worker counts — the property the CI golden check enforces.
func TestTraceOutByteStableAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	outs := make([][]byte, 0, 2)
	for i, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "trace"+workers+".json")
		var b strings.Builder
		err := run([]string{"-run", "table1", "-scale", "0.02",
			"-workers", workers, "-trace-out", path}, &b)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("trace not valid JSON: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Fatal("trace has no events")
			}
		}
		outs = append(outs, data)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("trace output differs between -workers 1 and -workers 4")
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var b strings.Builder
	err := run([]string{"-run", "table1", "-scale", "0.02", "-workers", "1",
		"-cpuprofile", cpu, "-memprofile", mem}, &b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestCheckpointCLIRoundTrip drives -checkpoint-out then -checkpoint-in and
// checks the resume continues past the freeze point deterministically.
func TestCheckpointCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "ck.snap")
	var b strings.Builder
	err := run([]string{"-scale", "0.05", "-checkpoint-at", "2ms", "-checkpoint-out", ck}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "checkpoint: froze") {
		t.Fatalf("missing freeze summary:\n%s", b.String())
	}
	resume := func() string {
		var rb strings.Builder
		if err := run([]string{"-scale", "0.05", "-checkpoint-in", ck}, &rb); err != nil {
			t.Fatal(err)
		}
		return rb.String()
	}
	first := resume()
	if !strings.Contains(first, "resumed:") {
		t.Fatalf("missing resume summary:\n%s", first)
	}
	if second := resume(); second != first {
		t.Fatalf("resume is not deterministic:\n%s\nvs\n%s", first, second)
	}
}

// TestCheckpointGoldenBytes pins the committed golden checkpoints: the
// encoding (container header, section markers, field order and widths) is
// versioned, so regenerating these exact flags must reproduce the committed
// bytes. The serial golden covers the single-engine sections; the lane-mode
// golden adds the sharded-engine and kvm-sharded sections. A mismatch
// means the format changed — bump snap.Version and regenerate the golden
// deliberately, never silently.
func TestCheckpointGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"reference-checkpoint.snap", nil},
		{"reference-checkpoint-lanes.snap", []string{"-quantum", "1ms"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			ck := filepath.Join(t.TempDir(), "ck.snap")
			args := append([]string{"-scale", "0.05", "-checkpoint-at", "10ms", "-checkpoint-out", ck}, tc.flags...)
			var b strings.Builder
			if err := run(args, &b); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(ck)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint bytes diverged from the committed golden (%d vs %d bytes): "+
					"if the snapshot encoding changed deliberately, bump the format version and regenerate testdata/%s",
					len(got), len(want), tc.golden)
			}
		})
	}
}

// stripWallClock drops the lines that differ between two runs of the same
// flags — the wall-clock "[name] ... wall" timing and trailing "done in ..."
// summary — and the "wrote ..." lines naming output paths, so outputs of two
// runs can be compared.
func stripWallClock(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "[") || strings.HasPrefix(line, "done in") ||
			strings.HasPrefix(strings.TrimLeft(line, " "), "wrote ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestShardFleetCLIByteIdentical is the CLI half of the tentpole contract:
// -run shardfleet output is byte-identical for -shards 1 and -shards 4
// (modulo wall-clock lines). The CI sharded-determinism gate diffs the same
// pair on the full-size fleet.
func TestShardFleetCLIByteIdentical(t *testing.T) {
	runFleet := func(shards string) string {
		var b strings.Builder
		err := run([]string{"-run", "shardfleet", "-scale", "0.005", "-shards", shards, "-quantum", "1ms"}, &b)
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := runFleet("1")
	if !strings.Contains(serial, "Shard fleet") {
		t.Fatalf("missing fleet report:\n%s", serial)
	}
	if sharded := runFleet("4"); stripWallClock(sharded) != stripWallClock(serial) {
		t.Fatalf("-shards 4 output diverges from -shards 1:\n%s\nvs\n%s", sharded, serial)
	}
}

// TestShardFleetCLIDefaultsQuantum checks -run shardfleet works without an
// explicit -quantum (the fleet supplies its 1ms default) and that -shards
// without -quantum is rejected for every other experiment.
func TestShardFleetCLIDefaultsQuantum(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-run", "shardfleet", "-scale", "0.005"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "quantum 1ms") {
		t.Fatalf("fleet did not default the quantum:\n%s", b.String())
	}
	if err := run([]string{"-run", "table1", "-shards", "4"}, &b); err == nil {
		t.Error("-shards without -quantum accepted")
	}
}

// TestManifestRecordsSharding pins the manifest's shard fields.
func TestManifestRecordsSharding(t *testing.T) {
	mf := filepath.Join(t.TempDir(), "manifest.json")
	var b strings.Builder
	err := run([]string{"-run", "shardfleet", "-scale", "0.005", "-shards", "2", "-quantum", "500us",
		"-manifest", mf}, &b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Shards != 2 || m.QuantumNs != 500_000 {
		t.Fatalf("manifest shard fields wrong: shards=%d quantum_ns=%d", m.Shards, m.QuantumNs)
	}
}

// TestSnapshotProbeFlag smoke-tests -snapshot-probe: a probed run must
// succeed and render the same tables a plain run does.
func TestSnapshotProbeFlag(t *testing.T) {
	var plain, probed strings.Builder
	if err := run([]string{"-run", "table1", "-scale", "0.02", "-workers", "1"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "table1", "-scale", "0.02", "-workers", "1", "-snapshot-probe", "500us"}, &probed); err != nil {
		t.Fatal(err)
	}
	stripTiming := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "[table1]") || strings.HasPrefix(line, "done in") {
				continue // wall-clock lines differ run to run
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if stripTiming(plain.String()) != stripTiming(probed.String()) {
		t.Fatalf("probed table1 output diverges from plain run:\nplain:\n%s\nprobed:\n%s",
			plain.String(), probed.String())
	}
}
