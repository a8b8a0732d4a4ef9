package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workload", "fio:rndr:4:1"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"VM exits", "exit handling cost", "p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCompareSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workload", "fio:rndr:4:1", "-compare"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "paratick vs dynticks") {
		t.Fatalf("comparison header missing:\n%s", b.String())
	}
}

func TestRunTraceSmoke(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-workload", "fio:rndr:4:1", "-trace", "4096", "-events", "5"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"VM exits", "trace:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceOutWritesValidChromeJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var b strings.Builder
	if err := run([]string{"-workload", "fio:rndr:4:1", "-trace", "4096", "-trace-out", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkChromeTrace(t, data)
}

// referenceTraceSHA256 is the digest of the reference scenario's Chrome
// trace: two paratick vCPUs on fio:rndr:4:4, seed 1, a 65536-event ring.
// The file depends only on the flags, so any change to these bytes is a
// change to what the simulator records.
const referenceTraceSHA256 = "98f0d250b44f5254479acf0c9ace5683f8b26a3d25cfd6e7b1edceb5a38ba380"

func TestRunTraceOutReferenceBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var b strings.Builder
	if err := run([]string{"-mode", "paratick", "-vcpus", "2", "-workload", "fio:rndr:4:4",
		"-trace", "65536", "-trace-out", path}, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != referenceTraceSHA256 {
		t.Errorf("reference trace sha256 %x, want %s", sum, referenceTraceSHA256)
	}
	checkChromeTrace(t, data)
}

// checkChromeTrace fails t unless data is a Chrome trace-event JSON
// document with at least one event.
func checkChromeTrace(t *testing.T, data []byte) {
	t.Helper()
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

func TestRunTraceBadMode(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "bogus", "-trace", "4096"}, &b); err == nil {
		t.Error("bogus mode accepted with tracing on")
	}
}

func TestRunBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-mode", "bogus"}, &b); err == nil {
		t.Error("bogus mode accepted")
	}
	if err := run([]string{"-workload", "idle"}, &b); err == nil {
		t.Error("idle without duration accepted")
	}
	if err := run([]string{"-workload", "nonsense:spec"}, &b); err == nil {
		t.Error("bad workload spec accepted")
	}
	// Above 1 GHz the tick period truncates to 0ns; both rates must be
	// rejected as errors, not reach the timer constructors' panics.
	if err := run([]string{"-host-hz", "2000000000"}, &b); err == nil {
		t.Error("host tick rate above 1 GHz accepted")
	}
	if err := run([]string{"-guest-hz", "2000000000"}, &b); err == nil {
		t.Error("guest tick rate above 1 GHz accepted")
	}
}

// TestRunHostileFlags pins that hostile values are refused before anything
// runs or prints: a 5000h idle run used to simulate for hours, past the
// 1000 s cap a workload run stops at; a 1 GHz host tick did not finish; a
// NaN or infinite sync rate ran and reported wakeups, and so did a finite
// one whose mean interval overflowed sim.Time or rounded to 0 ns; a
// billion-thread workload allocated a task per thread; and fio sizes that
// wrap when converted to bytes (2^54+1 KiB blocks, 2^44+1 MiB in total)
// ran as the wrapped sizes, 1 KiB and 1 MiB. Trace flags that cannot take
// effect (-events or -trace-out without -trace, a trace of a -compare's two
// runs) are refused too, not ignored.
func TestRunHostileFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "idle", "-duration", "5000h"},
		{"-workload", "idle", "-duration", "-1ms"},
		{"-duration", "-1ms"},
		{"-vcpus", "-1"},
		{"-overcommit", "-1"},
		{"-haltpoll", "-1ms"},
		{"-sched", "nope"},
		{"-host-hz", "1000000000"},
		{"-host-hz", "1001"},
		{"-guest-hz", "1001"},
		{"-host-hz", "-1"},
		{"-workload", "sync:2:NaN"},
		{"-workload", "sync:2:+Inf"},
		{"-workload", "sync:2:1e-300"},
		{"-workload", "sync:2:1e300"},
		{"-workload", "sync:1000000000:1000"},
		{"-workload", "parsec-par:ferret:1000000000"},
		{"-workload", "fio:rndr:18014398509481985:1"},
		{"-workload", "fio:rndr:4:17592186044417"},
		{"-trace", "-1"},
		{"-events", "5"},
		{"-trace-out", filepath.Join(t.TempDir(), "trace.json")},
		{"-trace", "16", "-compare"},
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
