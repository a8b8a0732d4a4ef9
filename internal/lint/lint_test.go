package lint

import (
	"path/filepath"
	"testing"
)

// diagAt is one expected finding: base filename, exact line and column, and
// the rule that fires there.
type diagAt struct {
	file string
	line int
	col  int
	rule string
}

// fixtureConfig scopes the rules to the fixture import paths: the d001
// fixture package is "deterministic", the s001/unused fixtures carry
// the snapshot contract, the r001/unused fixtures are arena-recycled
// through their Pool, and the d005 fixture is lane-dispatch code with
// coord.go as its only coordinator file.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPkgs:    []string{"fixture/d001"},
		SnapshotPkgs:         []string{"fixture/s001", "fixture/unused"},
		ArenaRoots:           []string{"fixture/r001:Pool", "fixture/unused:Pool"},
		LaneDispatchPkgs:     []string{"fixture/d005"},
		LaneCoordinatorFiles: []string{"fixture/d005:coord.go"},
	}
}

// TestAnalyzerFixtures drives every rule over its positive (fires) and
// negative (clean) fixture and asserts the exact diagnostic positions, so a
// rule cannot silently rot in either direction. Both fixture files form one
// package per rule; every expected finding lives in pos.go, and any finding
// in neg.go fails the test by not matching the table.
func TestAnalyzerFixtures(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rule      string
		analyzers []*Analyzer
		want      []diagAt
	}{
		{"d001", []*Analyzer{AnalyzerD001}, []diagAt{
			{"pos.go", 7, 7, "D001"}, // time.Now
			{"pos.go", 8, 2, "D001"}, // time.Sleep
		}},
		{"d002", []*Analyzer{AnalyzerD002}, []diagAt{
			{"pos.go", 7, 2, "D002"}, // rand.Seed
			{"pos.go", 8, 9, "D002"}, // rand.Intn
		}},
		{"d003", []*Analyzer{AnalyzerD003}, []diagAt{
			{"pos.go", 11, 2, "D003"}, // range feeding fmt.Println
			{"pos.go", 20, 2, "D003"}, // range accumulating floats
			{"pos.go", 30, 2, "D003"}, // range feeding a snapshot encoder
			{"pos.go", 37, 2, "D003"}, // range feeding a snapshot stream
			{"pos.go", 45, 2, "D003"}, // range feeding a generic stream helper
		}},
		{"d004", []*Analyzer{AnalyzerD004}, []diagAt{
			{"pos.go", 5, 2, "D004"}, // go statement
			{"pos.go", 6, 2, "D004"}, // two-case select
		}},
		{"d005", []*Analyzer{AnalyzerD005}, []diagAt{
			{"pos.go", 6, 4, "D005"}, // coordinator-only Drain call
			{"pos.go", 7, 4, "D005"}, // direct field access
		}},
		{"a001", []*Analyzer{AnalyzerA001}, []diagAt{
			{"pos.go", 9, 9, "A001"},  // append without cap evidence
			{"pos.go", 11, 2, "A001"}, // fmt.Println
			{"pos.go", 12, 7, "A001"}, // map literal
			{"pos.go", 13, 2, "A001"}, // unannotated callee
			{"pos.go", 23, 7, "A001"}, // int boxed into any
		}},
		{"s001", []*Analyzer{AnalyzerS001}, []diagAt{
			{"pos.go", 11, 2, "S001"}, // dropped: never encoded
			{"pos.go", 13, 2, "S001"}, // cache: reasonless skip excuses nothing
			{"pos.go", 25, 2, "S001"}, // armed: mentioned, never moved
		}},
		{"r001", []*Analyzer{AnalyzerR001}, []diagAt{
			{"pos.go", 23, 2, "R001"}, // buf: never reset
			{"pos.go", 25, 2, "R001"}, // owner: reasonless keep excuses nothing
		}},
		{"unused", []*Analyzer{AnalyzerD003, AnalyzerS001, AnalyzerR001, AnalyzerU001}, []diagAt{
			{"pos.go", 12, 2, "U001"}, // stale //lint:ignore on a slice range
			{"pos.go", 21, 2, "U001"}, // reasonless //lint:ignore
			{"pos.go", 22, 2, "D003"}, // the map range the bare directive fails to hush
			{"pos.go", 31, 2, "U001"}, // stale //snap:skip on an encoded field
			{"pos.go", 44, 2, "U001"}, // reasonless //snap:skip
			{"pos.go", 45, 2, "S001"}, // entries: the bare skip excuses nothing
			{"pos.go", 69, 2, "U001"}, // stale //reset:keep on a reset field
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", tc.rule), "fixture/"+tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			diags := RunAnalyzers(fixtureConfig(), []*Package{pkg}, tc.analyzers)
			if len(diags) != len(tc.want) {
				for _, d := range diags {
					t.Logf("got: %s", d)
				}
				t.Fatalf("got %d diagnostics, want %d", len(diags), len(tc.want))
			}
			for i, d := range diags {
				w := tc.want[i]
				got := diagAt{filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule}
				if got != w {
					t.Errorf("diagnostic %d: got %+v, want %+v (%s)", i, got, w, d.Message)
				}
			}
		})
	}
}

// TestConcurrencyAllowlist checks both allowlist entry forms: a pkg:file
// pin and an import-path prefix.
func TestConcurrencyAllowlist(t *testing.T) {
	cfg := &Config{ConcurrencyAllow: []string{
		"mod/internal/experiment:runner.go",
		"mod/cmd/",
	}}
	for _, tc := range []struct {
		pkg, file string
		want      bool
	}{
		{"mod/internal/experiment", "runner.go", true},
		{"mod/internal/experiment", "other.go", false},
		{"mod/cmd/paratick-bench", "main.go", true},
		{"mod/cmdx", "main.go", false},
		{"mod/internal/sim", "engine.go", false},
	} {
		if got := cfg.concurrencyAllowed(tc.pkg, tc.file); got != tc.want {
			t.Errorf("concurrencyAllowed(%s, %s) = %v, want %v", tc.pkg, tc.file, got, tc.want)
		}
	}
}

// TestD004AllowlistedFixture re-runs the D004 positive fixture with its file
// on the allowlist and expects silence.
func TestD004AllowlistedFixture(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "d004"), "fixture/d004")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{ConcurrencyAllow: []string{"fixture/d004:pos.go"}}
	if diags := RunAnalyzers(cfg, []*Package{pkg}, []*Analyzer{AnalyzerD004}); len(diags) != 0 {
		t.Fatalf("allowlisted fixture still fires: %v", diags)
	}
}

// TestDirectiveRequiresReason checks that a bare //lint:ignore without a
// justification does not suppress anything.
func TestDirectiveRequiresReason(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "ignore"), "fixture/ignore")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(fixtureConfig(), []*Package{pkg}, []*Analyzer{AnalyzerD003})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the unjustified one: %v", len(diags), diags)
	}
	if got := diags[0].Pos.Line; got != 16 {
		t.Errorf("surviving diagnostic at line %d, want 16 (the reasonless directive)", got)
	}
}
