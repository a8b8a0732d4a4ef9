package main

import (
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
// NaN or infinite sync rate ran and reported wakeups.
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
