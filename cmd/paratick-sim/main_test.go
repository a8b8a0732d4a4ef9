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
