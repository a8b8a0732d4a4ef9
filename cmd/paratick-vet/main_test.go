package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for hermetic driver tests and
// returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const demoGoMod = "module demo\n\ngo 1.22\n"

// dirtySim is a deterministic-package file with one wall-clock violation on
// line 6.
const dirtySim = `package sim

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}
`

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-list"}, &buf); code != 0 {
		t.Fatalf("run(-list) = %d, want 0\n%s", code, buf.String())
	}
	for _, rule := range []string{"D001", "D002", "D003", "D004", "D005", "S001", "R001", "A001", "U001"} {
		if !strings.Contains(buf.String(), rule) {
			t.Errorf("-list output missing %s:\n%s", rule, buf.String())
		}
	}
}

func TestRunDirtyModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":              demoGoMod,
		"internal/sim/sim.go": dirtySim,
	})
	var buf bytes.Buffer
	if code := run([]string{"-C", root, "./..."}, &buf); code != 1 {
		t.Fatalf("run on dirty module = %d, want 1\n%s", code, buf.String())
	}
	want := "internal/sim/sim.go:6:9: [D001]"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("output missing %q:\n%s", want, buf.String())
	}
}

func TestRunCleanModuleJSONSchema(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":  demoGoMod,
		"main.go": "package main\n\nfunc main() {}\n",
	})
	var buf bytes.Buffer
	if code := run([]string{"-C", root, "-json", "./..."}, &buf); code != 0 {
		t.Fatalf("run on clean module = %d, want 0\n%s", code, buf.String())
	}
	// The empty report is part of the schema contract: version marker,
	// explicit count, and a present-but-empty diagnostics array (never
	// null), so downstream parsers need no special cases.
	want := "{\n  \"version\": 1,\n  \"count\": 0,\n  \"diagnostics\": []\n}\n"
	if buf.String() != want {
		t.Errorf("clean -json output drifted:\ngot  %q\nwant %q", buf.String(), want)
	}
}

func TestRunDirtyModuleJSONSchema(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":              demoGoMod,
		"internal/sim/sim.go": dirtySim,
	})
	var buf bytes.Buffer
	if code := run([]string{"-C", root, "-json", "./..."}, &buf); code != 1 {
		t.Fatalf("run on dirty module = %d, want 1\n%s", code, buf.String())
	}
	var report struct {
		Version     int `json:"version"`
		Count       int `json:"count"`
		Diagnostics []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, buf.String())
	}
	if report.Version != 1 {
		t.Errorf("version = %d, want 1", report.Version)
	}
	if report.Count != 1 || len(report.Diagnostics) != 1 {
		t.Fatalf("count = %d with %d diagnostics, want 1 and 1\n%s", report.Count, len(report.Diagnostics), buf.String())
	}
	d := report.Diagnostics[0]
	if d.File != "internal/sim/sim.go" || d.Line != 6 || d.Col != 9 || d.Rule != "D001" || d.Message == "" {
		t.Errorf("diagnostic drifted from schema expectations: %+v", d)
	}
}

func TestRunRuleSubsetAndErrors(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":              demoGoMod,
		"internal/sim/sim.go": dirtySim,
	})
	// Restricting to an unrelated rule reports nothing.
	var buf bytes.Buffer
	if code := run([]string{"-C", root, "-rules", "D004", "./..."}, &buf); code != 0 {
		t.Fatalf("run -rules D004 = %d, want 0\n%s", code, buf.String())
	}
	// Unknown rules and unmatched patterns are usage errors (exit 2).
	buf.Reset()
	if code := run([]string{"-rules", "D999"}, &buf); code != 2 {
		t.Fatalf("run -rules D999 = %d, want 2", code)
	}
	buf.Reset()
	if code := run([]string{"-C", root, "./no/such/pkg"}, &buf); code != 2 {
		t.Fatalf("run with unmatched pattern = %d, want 2\n%s", code, buf.String())
	}
}

// staleSim carries a suppression directive that suppresses nothing: U001
// bait, on line 4.
const staleSim = `package sim

func Stamp() int64 {
	//lint:ignore D001 wall clock is sanctioned here
	return 42
}
`

// TestUnusedDirectivesFlag checks that the stale-suppression audit is on
// by default and that -unused-directives=false switches it off.
func TestUnusedDirectivesFlag(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":              demoGoMod,
		"internal/sim/sim.go": staleSim,
	})
	var buf bytes.Buffer
	if code := run([]string{"-C", root, "./..."}, &buf); code != 1 {
		t.Fatalf("run on stale-directive module = %d, want 1\n%s", code, buf.String())
	}
	want := "internal/sim/sim.go:4:2: [U001]"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("output missing %q:\n%s", want, buf.String())
	}
	buf.Reset()
	if code := run([]string{"-C", root, "-unused-directives=false", "./..."}, &buf); code != 0 {
		t.Fatalf("run with -unused-directives=false = %d, want 0\n%s", code, buf.String())
	}
}

// TestRepoIsClean vets the real module: the repo's own contract that
// paratick-vet ./... stays silent. Run from this package's directory, the
// module root is discovered by walking up.
func TestRepoIsClean(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"./..."}, &buf); code != 0 {
		t.Fatalf("paratick-vet on this repository = %d, want 0:\n%s", code, buf.String())
	}
}
