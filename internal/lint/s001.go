package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerS001 enforces snapshot field coverage. The module's save graph is
// every function with a *snap.Stream parameter — Snap/snap bodies, their
// helpers (snapSharded, snapClock, snapSegment, …), and SnapState
// implementations. Because one body both encodes and decodes, a field is
// covered only when the graph *moves* it, not merely mentions it (a decode
// branch that re-binds a handler or checks a derived counter mentions
// fields it does not move):
//
//   - its address is taken: s.U64(&c.Injections), snap.Slice(s, &d.running);
//   - it is the receiver of a stream-taking method: c.TickInterval.Snap(s);
//   - it appears in the arguments of a Stream method other than Failf:
//     s.Len(len(k.locks), …), s.Section("vm:" + vm.name);
//   - it feeds a local variable the graph moves — the local-copy idiom for
//     checked and derived values (iov := h.nextIOVector; snap.Int(s, &iov)),
//     including a range variable over the field's collection.
//
// A struct type declared in a snapshot package is under the coverage
// contract as soon as any of its fields is covered. Every field of a
// contract type must then be covered or carry a `//snap:skip reason`
// annotation on its declaration — pools, closures, wiring, caches, and
// state re-derived on restore are the sanctioned skips.
var AnalyzerS001 = &Analyzer{
	Name: "S001",
	Doc:  "every field of a snapshotted struct is moved through a snap.Stream or carries //snap:skip",
	Run:  runS001,
}

// snapFacts is the module-wide save-graph sweep behind S001.
type snapFacts struct {
	// covered maps a struct field to one save-graph position moving it.
	covered map[*types.Var]token.Pos
	// contract holds every struct type with at least one covered field.
	contract map[*TypeFact]bool
}

// snapshotFacts sweeps the save graph once per run.
func (f *Facts) snapshotFacts(cfg *Config) *snapFacts {
	if f.snap != nil {
		return f.snap
	}
	sf := &snapFacts{
		covered:  make(map[*types.Var]token.Pos),
		contract: make(map[*TypeFact]bool),
	}
	for _, ff := range f.Funcs {
		if streamParam(ff) != nil {
			sf.sweep(ff)
		}
	}
	for v := range sf.covered {
		if field := f.fields[v]; field != nil && cfg.isSnapshotPkg(field.Owner.Pkg.PkgPath) {
			sf.contract[field.Owner] = true
		}
	}
	f.snap = sf
	return sf
}

// streamParam returns the function's first *snap.Stream parameter (by
// object, so the body's uses resolve against it), or nil.
func streamParam(ff *FuncFact) *types.Var {
	params := ff.Decl.Type.Params
	if params == nil {
		return nil
	}
	for _, field := range params.List {
		for _, n := range field.Names {
			if v, ok := ff.Pkg.Info.Defs[n].(*types.Var); ok && isSnapType(v.Type(), "Stream") {
				return v
			}
		}
	}
	return nil
}

// sweep records the fields one save-graph body moves.
func (sf *snapFacts) sweep(ff *FuncFact) {
	info := ff.Pkg.Info
	moved := make(map[*types.Var]bool) // locals and parameters the body moves
	cover := func(sel *ast.SelectorExpr) {
		if selection := info.Selections[sel]; selection != nil && selection.Kind() == types.FieldVal {
			if v, ok := selection.Obj().(*types.Var); ok {
				if _, seen := sf.covered[v]; !seen {
					sf.covered[v] = sel.Pos()
				}
			}
		}
	}
	// coverOuter covers the field an operand or receiver denotes, seen
	// through indexing, dereference, and parentheses; a bare local there is
	// itself moved.
	coverOuter := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				cover(x)
			}
			break
		}
		markLocals(info, e, moved)
	}
	coverAll := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				cover(sel)
			}
			return true
		})
		markLocals(info, n, moved)
	}
	ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				coverOuter(n.X)
			}
		case *ast.CallExpr:
			sel, isSel := unparen(n.Fun).(*ast.SelectorExpr)
			if isSel && isSnapType(info.TypeOf(sel.X), "Stream") {
				if sel.Sel.Name != "Failf" {
					for _, arg := range n.Args {
						coverAll(arg)
					}
				}
				return true
			}
			if !passesStream(info, n) {
				return true
			}
			if isSel && info.Selections[sel] != nil {
				coverOuter(sel.X) // receiver of a stream-taking method
			}
			for _, arg := range n.Args {
				if id, ok := unparen(arg).(*ast.Ident); ok {
					markLocals(info, id, moved)
				}
			}
		}
		return true
	})
	// A moved local covers the fields its definitions read; iterate so a
	// local feeding another moved local counts too.
	for changed := true; changed; {
		before := len(moved)
		ast.Inspect(ff.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isMovedLocal(info, lhs, moved) {
						for _, rhs := range n.Rhs {
							coverAll(rhs)
						}
						break
					}
				}
			case *ast.RangeStmt:
				if isMovedLocal(info, n.Key, moved) || isMovedLocal(info, n.Value, moved) {
					coverAll(n.X)
				}
			}
			return true
		})
		changed = len(moved) != before
	}
}

// markLocals records every local variable or parameter referenced in n as
// moved.
func markLocals(info *types.Info, n ast.Node, moved map[*types.Var]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
				moved[v] = true
			}
		}
		return true
	})
}

// isMovedLocal reports whether e names a moved local (at its definition or
// a later assignment).
func isMovedLocal(info *types.Info, e ast.Expr, moved map[*types.Var]bool) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	return ok && moved[v]
}

func runS001(cfg *Config, facts *Facts, pkg *Package) []Diagnostic {
	sf := facts.snapshotFacts(cfg)
	var out []Diagnostic
	//lint:ordered RunAnalyzers sorts diagnostics by position before reporting
	for _, tf := range facts.Types {
		if tf.Pkg != pkg || !sf.contract[tf] {
			continue
		}
		for _, field := range tf.Fields {
			if _, ok := sf.covered[field.Var]; ok {
				continue // moved by the save graph
			}
			if d := field.SnapSkip; d != nil && d.Reason != "" {
				d.used = true
				continue
			}
			out = append(out, Diagnostic{
				Pos:  pkg.position(field.Pos),
				Rule: "S001",
				Message: fmt.Sprintf(
					"field %s.%s is not moved by any snap.Stream body and carries no //snap:skip justification (sanctioned skips: pools, closures, wiring, caches, derived state)",
					tf.Obj.Name(), field.Name),
			})
		}
	}
	return out
}
