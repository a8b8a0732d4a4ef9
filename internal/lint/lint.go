// Package lint is paratick-vet's analyzer framework: a small, stdlib-only
// (go/parser + go/types + go/importer) harness that type-checks the module
// from source and runs project-law analyzers over it.
//
// The laws it enforces are the two invariants the reproduction's methodology
// rests on and that tests can only catch after the fact:
//
//   - Determinism: simulation results must be byte-identical for any seed and
//     worker count. Wall-clock reads, global RNG state, unordered map
//     iteration feeding output, and unsanctioned concurrency all break this
//     silently, far from where a golden diff eventually points. Rules D001,
//     D002, D003 and D004 turn each into a compile-time diagnostic with exact
//     file:line blame.
//
//   - Zero-allocation hot paths: the event engine and timer wheel promise
//     0 allocs/op in steady state. Rule A001 checks every function annotated
//     `//paratick:noalloc` for allocation-prone constructs and requires the
//     same annotation on its statically-resolved same-package callees, so an
//     allocation cannot hide one call deep.
//
// Suppression: a finding that is deliberate carries a justification comment
// on the same line or the line directly above it —
//
//	//lint:ignore D004 reason…   suppresses the named rule(s); a reason is
//	                             mandatory (comma-separate several rules)
//	//lint:ordered reason…       shorthand for D003: iteration order is
//	                             harmless or handled here
//
// A directive without a reason does not suppress anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at an exact source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic vet-style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule run over a type-checked package.
type Analyzer struct {
	// Name is the rule identifier (D001…, A001…) used in diagnostics and
	// suppression directives.
	Name string
	// Doc is a one-line description shown by paratick-vet -list.
	Doc string
	// Run reports the rule's findings in pkg. facts is the shared
	// cross-package type-facts layer built once per RunAnalyzers call.
	// Suppression directives are applied by RunAnalyzers, not by the rule
	// itself.
	Run func(cfg *Config, facts *Facts, pkg *Package) []Diagnostic
}

// Analyzers returns every registered rule, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerD001, AnalyzerD002, AnalyzerD003, AnalyzerD004, AnalyzerD005,
		AnalyzerS001, AnalyzerR001, AnalyzerA001, AnalyzerU001,
	}
}

// Config scopes the rules to the project layout: which packages carry the
// determinism contract and where concurrency is sanctioned.
type Config struct {
	// DeterministicPkgs are import paths of packages in which D001 (wall
	// clock) applies: everything they compute must be a pure function of
	// seeds and scenario parameters.
	DeterministicPkgs []string
	// ExemptFiles maps an import path to base filenames excluded from the
	// deterministic-package rules (e.g. the parallel runner, which owns the
	// sanctioned concurrency but never touches simulated state).
	ExemptFiles map[string][]string
	// ConcurrencyAllow lists where D004 permits goroutine launches and
	// multi-case selects: either an import-path prefix ("mod/cmd/") or a
	// single file ("mod/internal/experiment:runner.go").
	ConcurrencyAllow []string
	// SnapshotPkgs are import paths whose struct types carry the snapshot
	// coverage contract: once any field of a type is moved by a snap.Stream
	// body, S001 requires every field to be moved or carry a //snap:skip
	// reason.
	SnapshotPkgs []string
	// ArenaRoots name the arena take-path entry points for R001, as
	// "importpath:Type" (every method of Type), "importpath:Type.Method",
	// or "importpath:Func". Any Reset/reset method statically reachable
	// from a root puts its receiver type under the reset-coverage contract.
	ArenaRoots []string
	// LaneDispatchPkgs are packages whose code executes inside engine
	// lanes; D005 restricts them to the lane-safe ShardedEngine surface
	// (Post, Quantum).
	LaneDispatchPkgs []string
	// LaneCoordinatorFiles ("importpath:file.go") are files within
	// lane-dispatch packages sanctioned to use the coordinator-only
	// ShardedEngine surface: construction, reset, snapshot, and the
	// barrier-drain plumbing itself.
	LaneCoordinatorFiles []string
}

// DefaultConfig returns the paratick project policy for a module rooted at
// import path modPath.
func DefaultConfig(modPath string) *Config {
	p := func(s string) string { return modPath + "/" + s }
	return &Config{
		DeterministicPkgs: []string{
			p("internal/sim"), p("internal/guest"), p("internal/kvm"),
			p("internal/core"), p("internal/sched"), p("internal/hw"),
			p("internal/experiment"),
		},
		ExemptFiles: map[string][]string{
			p("internal/experiment"): {"runner.go"},
		},
		ConcurrencyAllow: []string{
			p("internal/experiment") + ":runner.go",
			// shard.go owns the quantum-barrier parallelism: shard worker
			// goroutines synchronized by channel ping-pong, each confined to
			// its own lanes' engines. Everything else in internal/sim stays
			// single-threaded by contract.
			p("internal/sim") + ":shard.go",
			p("cmd") + "/",
		},
		SnapshotPkgs: []string{
			p("internal/sim"), p("internal/guest"), p("internal/kvm"),
			p("internal/metrics"), p("internal/trace"), p("internal/sched"),
			p("internal/hw"), p("internal/iodev"), p("internal/workload"),
			p("internal/experiment"),
		},
		ArenaRoots: []string{
			// Host/VM pooling: HostArena.NewHostOn → Host.reset → PCPU.reset,
			// and the VM take path, which runs through Host.NewVM (the arena
			// itself only stashes) → VM.reset → Kernel.Reset → VCPU.reset;
			// and the device take path, VM.AttachDevice → Device.Reset.
			p("internal/kvm") + ":HostArena",
			p("internal/kvm") + ":VMArena",
			p("internal/kvm") + ":Host.NewVM",
			p("internal/kvm") + ":VM.AttachDevice",
		},
		LaneDispatchPkgs: []string{
			p("internal/sim"), p("internal/guest"), p("internal/kvm"),
		},
		LaneCoordinatorFiles: []string{
			// shard.go defines ShardedEngine and owns the barrier/drain
			// machinery; the kvm files below run only on the coordinator:
			// construction, arena reset, checkpoint save/load, and VM wiring.
			p("internal/sim") + ":shard.go",
			p("internal/kvm") + ":host.go",
			p("internal/kvm") + ":arena.go",
			p("internal/kvm") + ":snapshot.go",
			p("internal/kvm") + ":vm.go",
		},
	}
}

// isDeterministicPkg reports whether the determinism rules apply to pkgPath.
func (c *Config) isDeterministicPkg(pkgPath string) bool {
	for _, p := range c.DeterministicPkgs {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// isExemptFile reports whether base (a file's base name) is excluded from
// the deterministic-package rules in pkgPath.
func (c *Config) isExemptFile(pkgPath, base string) bool {
	for _, f := range c.ExemptFiles[pkgPath] {
		if f == base {
			return true
		}
	}
	return false
}

// concurrencyAllowed reports whether D004 sanctions concurrency in the given
// file of the given package.
func (c *Config) concurrencyAllowed(pkgPath, base string) bool {
	for _, entry := range c.ConcurrencyAllow {
		if pkg, file, ok := strings.Cut(entry, ":"); ok {
			if pkg == pkgPath && file == base {
				return true
			}
			continue
		}
		if entry == pkgPath || strings.HasPrefix(pkgPath, strings.TrimSuffix(entry, "/")+"/") {
			return true
		}
	}
	return false
}

// isSnapshotPkg reports whether the snapshot coverage contract applies to
// types declared in pkgPath.
func (c *Config) isSnapshotPkg(pkgPath string) bool {
	for _, p := range c.SnapshotPkgs {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// isLaneDispatchPkg reports whether pkgPath holds lane-executed code.
func (c *Config) isLaneDispatchPkg(pkgPath string) bool {
	for _, p := range c.LaneDispatchPkgs {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// laneCoordinatorFile reports whether base (a file's base name) in pkgPath
// is sanctioned to use the coordinator-only ShardedEngine surface.
func (c *Config) laneCoordinatorFile(pkgPath, base string) bool {
	for _, entry := range c.LaneCoordinatorFiles {
		if pkg, file, ok := strings.Cut(entry, ":"); ok && pkg == pkgPath && file == base {
			return true
		}
	}
	return false
}

// RunAnalyzers builds the shared type-facts layer, runs the given rules
// over every package, drops findings suppressed by a justification
// directive, and returns the remainder sorted by (file, line, column,
// rule). When U001 is among the analyzers, a final pass reports every
// suppression directive that excused nothing (considering only the rules
// that actually ran, so a -rules subset cannot mark directives stale).
func RunAnalyzers(cfg *Config, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := BuildFacts(pkgs)
	auditUnused := false
	ran := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "U001" {
			auditUnused = true
		} else {
			ran[a.Name] = true
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		pkg.ensureDirectives()
		for _, a := range analyzers {
			for _, d := range a.Run(cfg, facts, pkg) {
				if !pkg.suppressed(d.Rule, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	if auditUnused {
		for _, pkg := range pkgs {
			for _, d := range unusedDirectiveDiags(facts, pkg, ran) {
				if !pkg.suppressed(d.Rule, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// Package is one type-checked, comment-bearing package under analysis.
type Package struct {
	// PkgPath is the import path ("paratick/internal/sim").
	PkgPath string
	// Dir is the package directory on disk.
	Dir  string
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by filename.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// directives maps filename → line → the //lint: directives written
	// there, built lazily and hit-tracked for the U001 stale-suppression
	// audit.
	directives map[string]map[int][]*lineDirective
}

// lineDirective is one //lint:ignore or //lint:ordered comment.
type lineDirective struct {
	// rules the directive names (lint:ordered is shorthand for D003).
	rules []string
	// hasReason records whether a justification was given; without one the
	// directive suppresses nothing.
	hasReason bool
	pos       token.Pos
	// used flips when the directive suppresses a diagnostic.
	used bool
}

// fileBase returns the base filename of the file containing pos.
func (p *Package) fileBase(pos token.Pos) string {
	return filepath.Base(p.Fset.Position(pos).Filename)
}

// position resolves a token.Pos.
func (p *Package) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// ensureDirectives parses the package's //lint: comments once.
func (p *Package) ensureDirectives() {
	if p.directives == nil {
		p.directives = parseDirectives(p.Fset, p.Files)
	}
}

// suppressed reports whether a justification directive on the diagnostic's
// line, or the line directly above it, names the rule. A directive without
// a reason suppresses nothing. Matches are recorded for the U001 audit.
func (p *Package) suppressed(rule string, pos token.Position) bool {
	p.ensureDirectives()
	byLine := p.directives[pos.Filename]
	hit := false
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[l] {
			if !d.hasReason {
				continue
			}
			for _, r := range d.rules {
				if r == rule {
					d.used = true
					hit = true
				}
			}
		}
	}
	return hit
}

// parseDirectives scans every comment for //lint:ignore and //lint:ordered
// justifications, keeping reasonless directives around (they suppress
// nothing, but U001 reports them).
func parseDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]*lineDirective {
	out := make(map[string]map[int][]*lineDirective)
	add := func(pos token.Pos, d *lineDirective) {
		position := fset.Position(pos)
		byLine := out[position.Filename]
		if byLine == nil {
			byLine = make(map[int][]*lineDirective)
			out[position.Filename] = byLine
		}
		d.pos = pos
		byLine[position.Line] = append(byLine[position.Line], d)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if rest, ok := strings.CutPrefix(text, "lint:ignore "); ok {
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue // no rule named: not a directive
					}
					add(c.Pos(), &lineDirective{
						rules:     strings.Split(fields[0], ","),
						hasReason: len(fields) >= 2,
					})
				} else if rest, ok := strings.CutPrefix(text, "lint:ordered"); ok && (rest == "" || strings.HasPrefix(rest, " ")) {
					add(c.Pos(), &lineDirective{
						rules:     []string{"D003"},
						hasReason: strings.TrimSpace(rest) != "",
					})
				}
			}
		}
	}
	return out
}

// pkgNameOf returns the imported package an identifier refers to, or nil if
// the identifier is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn
	}
	return nil
}

// qualifiedCallee resolves a selector expression to (package path, name) when
// it references a package-level object of an imported package.
func qualifiedCallee(info *types.Info, sel *ast.SelectorExpr) (string, string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn := pkgNameOf(info, id)
	if pn == nil {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
