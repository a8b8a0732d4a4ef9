package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paratick/internal/perf"
)

func writeBaseline(t *testing.T, results []perfSuiteResult) string {
	t.Helper()
	data, err := json.Marshal(perfSuiteReport{GoVersion: "go-test", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestComparePerfBaseline(t *testing.T) {
	report := perfSuiteReport{Results: []perfSuiteResult{
		{Name: "wheel/add-cancel", NsPerOp: 15, AllocsPerOp: 0},
		{Name: "e2e/table1", NsPerOp: 1e6, AllocsPerOp: 100_001},
		{Name: "wheel/brand-new", NsPerOp: 9, AllocsPerOp: 0},
	}}

	t.Run("within-threshold", func(t *testing.T) {
		path := writeBaseline(t, []perfSuiteResult{
			{Name: "wheel/add-cancel", NsPerOp: 13, AllocsPerOp: 0},
			{Name: "e2e/table1", NsPerOp: 0.9e6, AllocsPerOp: 100_000},
		})
		var b strings.Builder
		if err := comparePerfBaseline(&b, report, path, 1.25); err != nil {
			t.Fatalf("comparison failed: %v\n%s", err, b.String())
		}
		if !strings.Contains(b.String(), "new kernel, no baseline") {
			t.Errorf("new kernel not noted:\n%s", b.String())
		}
	})

	t.Run("ns-regression", func(t *testing.T) {
		path := writeBaseline(t, []perfSuiteResult{
			{Name: "wheel/add-cancel", NsPerOp: 10, AllocsPerOp: 0},
			{Name: "e2e/table1", NsPerOp: 1e6, AllocsPerOp: 100_001},
		})
		var b strings.Builder
		err := comparePerfBaseline(&b, report, path, 1.25)
		if err == nil || !strings.Contains(b.String(), "wheel/add-cancel") {
			t.Fatalf("1.5x ns/op regression not caught (err=%v):\n%s", err, b.String())
		}
	})

	t.Run("alloc-regression-from-zero", func(t *testing.T) {
		path := writeBaseline(t, []perfSuiteResult{
			{Name: "wheel/add-cancel", NsPerOp: 15, AllocsPerOp: 0},
		})
		leaky := perfSuiteReport{Results: []perfSuiteResult{
			{Name: "wheel/add-cancel", NsPerOp: 15, AllocsPerOp: 1},
		}}
		var b strings.Builder
		if err := comparePerfBaseline(&b, leaky, path, 1.25); err == nil {
			t.Fatalf("0→1 allocs/op regression not caught:\n%s", b.String())
		}
	})

	t.Run("alloc-jitter-tolerated", func(t *testing.T) {
		// ±1 on a six-figure count is amortization jitter, not a regression.
		path := writeBaseline(t, []perfSuiteResult{
			{Name: "wheel/add-cancel", NsPerOp: 15, AllocsPerOp: 0},
			{Name: "e2e/table1", NsPerOp: 1e6, AllocsPerOp: 100_000},
			{Name: "wheel/brand-new", NsPerOp: 9, AllocsPerOp: 0},
		})
		var b strings.Builder
		if err := comparePerfBaseline(&b, report, path, 1.25); err != nil {
			t.Fatalf("alloc jitter flagged as regression: %v\n%s", err, b.String())
		}
	})

	t.Run("missing-kernel", func(t *testing.T) {
		path := writeBaseline(t, []perfSuiteResult{
			{Name: "wheel/add-cancel", NsPerOp: 15, AllocsPerOp: 0},
			{Name: "wheel/retired", NsPerOp: 20, AllocsPerOp: 0},
		})
		var b strings.Builder
		err := comparePerfBaseline(&b, report, path, 1.25)
		if err == nil || !strings.Contains(b.String(), "wheel/retired") {
			t.Fatalf("kernel missing from suite not caught (err=%v):\n%s", err, b.String())
		}
	})

	t.Run("bad-baseline", func(t *testing.T) {
		var b strings.Builder
		if err := comparePerfBaseline(&b, report, filepath.Join(t.TempDir(), "absent.json"), 1.25); err == nil {
			t.Fatal("missing baseline file accepted")
		}
	})
}

func TestPerfSuiteFlagValidation(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-perf-suite", "-perf-threshold", "0"}, &b); err == nil {
		t.Fatal("zero perf-threshold accepted")
	}
}

// TestPerfKernelsMatchCommittedBaseline pins the suite's kernel set to the
// committed BENCH_PR10.json, the baseline CI's perf gate reads: adding,
// renaming, or removing a kernel must regenerate the baseline in the same
// change.
func TestPerfKernelsMatchCommittedBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_PR10.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base perfSuiteReport
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("BENCH_PR10.json invalid: %v", err)
	}
	names := map[string]bool{}
	for _, r := range base.Results {
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			t.Errorf("baseline entry %s has empty telemetry: %+v", r.Name, r)
		}
		names[r.Name] = true
	}
	for _, k := range perf.Kernels() {
		if !names[k.Name] {
			t.Errorf("baseline missing kernel %s", k.Name)
		}
		delete(names, k.Name)
	}
	for extra := range names {
		t.Errorf("baseline has retired kernel %s", extra)
	}
}
