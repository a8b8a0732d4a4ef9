package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestRunAllMatchesGolden pins the CLI's rendered tables to committed files.
// The worker, arena and probe gates compare the tree with itself, so a change
// that shifts every run the same way passes all of them; these goldens catch
// it. The serial golden is -run all; the lane golden is every experiment that
// honours -quantum, run in lane mode.
func TestRunAllMatchesGolden(t *testing.T) {
	render := func(args ...string) string {
		var b strings.Builder
		if err := run(append(args, "-scale", "0.05", "-workers", "1"), &b); err != nil {
			t.Fatal(err)
		}
		return stripWallClock(b.String())
	}
	checkGolden(t, filepath.Join("testdata", "golden-run-all.txt"), []byte(render("-run", "all")))
	var lanes strings.Builder
	for _, name := range []string{"table1", "fig4", "fig6", "crossover", "consolidation", "ablation"} {
		lanes.WriteString(render("-run", name, "-quantum", "1ms"))
	}
	checkGolden(t, filepath.Join("testdata", "golden-run-lanes.txt"), []byte(lanes.String()))
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
		t.Errorf("output diverges from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
