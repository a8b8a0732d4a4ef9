// Command paratick-vet statically enforces the project's determinism and
// zero-allocation contracts. It type-checks the module from source (stdlib
// only: go/parser + go/types + go/importer) and reports every violation as
//
//	file:line:col: [RULE] message
//
// Rules: D001 wall clock in deterministic packages, D002 global math/rand,
// D003 map iteration feeding ordered sinks, D004 unsanctioned concurrency,
// D005 shard-isolation violations in lane-executed code, S001 snapshot field
// coverage (every field moved through a snap.Stream body), R001 arena reset
// coverage, A001 allocation-prone constructs in //paratick:noalloc
// functions, and U001, the stale-suppression audit (-unused-directives, on
// by default): a //lint:ignore, //snap:skip, or //reset:keep that no longer
// suppresses or excuses anything — or is missing its mandatory reason — is
// itself reported. See DESIGN.md "Determinism & allocation contracts" and "Type
// facts and coverage contracts" for the full law book and the justification
// syntax.
//
// Usage:
//
//	paratick-vet [-C dir] [-json] [-rules D001,D003] [-unused-directives=false] [-list] [patterns]
//
// Patterns are module-relative package paths ("./...", "./internal/sim",
// "./internal/..."); the default is "./...". Exit status is 0 when clean,
// 1 when diagnostics were reported, 2 on usage or load errors — the same
// contract as go vet, so CI can gate on it directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"paratick/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// jsonDiagnostic is the stable -json record. Fields are append-only: tools
// parsing this schema must keep working across releases.
type jsonDiagnostic struct {
	File    string `json:"file"` // module-relative, forward slashes
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// jsonReport is the stable -json envelope.
type jsonReport struct {
	Version     int              `json:"version"`
	Count       int              `json:"count"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("paratick-vet", flag.ContinueOnError)
	fs.SetOutput(w)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (stable schema)")
	rules := fs.String("rules", "", "comma-separated rule subset to run (default: all)")
	unusedDirectives := fs.Bool("unused-directives", true, "report suppression directives that no longer suppress anything (U001)")
	list := fs.Bool("list", false, "list analyzers and exit")
	chdir := fs.String("C", "", "analyze the module containing this directory (default: current directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *rules != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*rules, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(w, "paratick-vet: unknown rule %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	if !*unusedDirectives {
		kept := analyzers[:0]
		for _, a := range analyzers {
			if a.Name != "U001" {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(w, "%s  %s\n", a.Name, a.Doc)
		}
		return 0
	}

	start := *chdir
	if start == "" {
		start = "."
	}
	root, err := lint.FindModuleRoot(start)
	if err != nil {
		fmt.Fprintln(w, "paratick-vet:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(w, "paratick-vet:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(w, "paratick-vet:", err)
		return 2
	}
	pkgs, err = filterPackages(pkgs, loader.ModulePath(), fs.Args())
	if err != nil {
		fmt.Fprintln(w, "paratick-vet:", err)
		return 2
	}

	cfg := lint.DefaultConfig(loader.ModulePath())
	diags := lint.RunAnalyzers(cfg, pkgs, analyzers)

	if *jsonOut {
		report := jsonReport{Version: 1, Count: len(diags), Diagnostics: []jsonDiagnostic{}}
		for _, d := range diags {
			report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
				File:    relFile(root, d.Pos.Filename),
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Rule:    d.Rule,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(w, "paratick-vet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", relFile(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relFile renders a diagnostic path relative to the module root with
// forward slashes, so output and JSON are machine-independent.
func relFile(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// filterPackages keeps the packages matching the given module-relative
// patterns ("./...", "./internal/sim", "./internal/..."). No patterns, ".",
// or "./..." mean the whole module.
func filterPackages(pkgs []*lint.Package, modPath string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		matched := false
		for _, pkg := range pkgs {
			rel := strings.TrimPrefix(strings.TrimPrefix(pkg.PkgPath, modPath), "/")
			var ok bool
			switch {
			case pat == "..." || pat == "" || pat == ".":
				ok = true
			case strings.HasSuffix(pat, "/..."):
				prefix := strings.TrimSuffix(pat, "/...")
				ok = rel == prefix || strings.HasPrefix(rel, prefix+"/")
			default:
				ok = rel == pat
			}
			if ok {
				matched = true
				if !seen[pkg.PkgPath] {
					seen[pkg.PkgPath] = true
					out = append(out, pkg)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}
