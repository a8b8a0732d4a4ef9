package paratick

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenScenarios are fixed-seed runs whose Report.Summary output is pinned
// in testdata/. They were captured before the scheduler extraction, so they
// prove the default FIFO policy is behaviour-preserving bit for bit — the
// overcommitted ones exercise run-queue rotation, timeslice expiry, and
// timer-steal exits, exactly the paths the scheduler refactor touched. An
// entry with a TraceCapacity also pins its Chrome trace export.
func goldenScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	fio, err := ParseWorkloadSpec("fio:rndr:4:2", 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Scenario{
		"fio-paratick": {
			Mode:          ModeParatick,
			VCPUs:         1,
			Seed:          7,
			TraceCapacity: 128,
			Workload:      fio,
		},
		"sync-overcommit2-dynticks": {
			Mode:       ModeDynticks,
			VCPUs:      4,
			Overcommit: 2,
			Seed:       7,
			Workload:   SyncWorkload(4, 2000, 80*time.Millisecond),
		},
		"sync-overcommit4-paratick": {
			Mode:       ModeParatick,
			VCPUs:      4,
			Overcommit: 4,
			Seed:       7,
			Workload:   SyncWorkload(4, 2000, 80*time.Millisecond),
		},
		"parsec-overcommit2-periodic": {
			Mode:       ModePeriodic,
			VCPUs:      2,
			Overcommit: 2,
			Seed:       7,
			Workload:   ParsecParallelScaled("dedup", 2, 0.02),
		},
	}
}

// TestFIFOGoldenSummaries asserts that the default scheduling policy
// reproduces the pre-refactor runs byte for byte.
func TestFIFOGoldenSummaries(t *testing.T) {
	for name, s := range goldenScenarios(t) {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden-"+name+".txt"), []byte(rep.Summary()))
			if s.TraceCapacity > 0 {
				var trace bytes.Buffer
				if err := rep.Trace.WriteChrome(&trace); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, filepath.Join("testdata", "golden-"+name+".trace.json"), trace.Bytes())
			}
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from pre-refactor golden %s:\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}
