package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerD003 flags `range` over a map when the loop body is sensitive to
// iteration order: it writes output (fmt calls, Write*/AddRow/Encode-style
// method calls), sends on a channel, or accumulates floating-point state
// declared outside the loop (float addition is not associative, so the sum
// depends on visit order). The sanctioned patterns stay silent:
//
//   - collect-and-sort: a loop that only appends keys or pairs into a slice
//     that is sorted before use triggers nothing (append and integer
//     accumulation are order-independent);
//   - a `//lint:ordered reason` comment on the range line (or the line
//     above) records that ordering is deliberate and suppresses the finding.
var AnalyzerD003 = &Analyzer{
	Name: "D003",
	Doc:  "no map iteration feeding output, event ordering, or float aggregation (sort keys or justify with //lint:ordered)",
	Run:  runD003,
}

// orderedSinkMethods are method names whose call inside a map-range body
// implies the iteration order reaches an ordered sink (an output stream, a
// table, an encoder, an event queue).
var orderedSinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteTo":     true,
	"AddRow":      true,
	"Encode":      true,
	"Print":       true,
	"Printf":      true,
	"Println":     true,
	"At":          true, // sim.Engine.At / After: event ordering
	"After":       true,
	"Push":        true,
	"Enqueue":     true,
}

func runD003(cfg *Config, _ *Facts, pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := orderSensitive(pkg, rs); reason != "" {
				out = append(out, Diagnostic{
					Pos:  pkg.position(rs.Pos()),
					Rule: "D003",
					Message: fmt.Sprintf("map iteration order reaches an ordered sink (%s): collect and sort the keys, or justify with //lint:ordered",
						reason),
				})
			}
			return true
		})
	}
	return out
}

// orderSensitive reports why the body of a map range depends on iteration
// order, or "" when it only performs order-independent work.
func orderSensitive(pkg *Package, rs *ast.RangeStmt) string {
	reason := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "channel send"
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if path, name, ok := qualifiedCallee(pkg.Info, sel); ok {
					switch {
					case path == "fmt":
						reason = "fmt." + name + " call"
					case passesStream(pkg.Info, n): // a generic snap helper (snap.Int, snap.Slice, …)
						reason = "snap." + name + " call"
					}
					return true
				}
				// A method (not package-qualified) call with a sink name.
				if orderedSinkMethods[sel.Sel.Name] {
					reason = sel.Sel.Name + " method call"
				} else if recv := snapSinkType(pkg, sel); recv != "" {
					reason = "snap." + recv + "." + sel.Sel.Name + " call"
				}
			}
		case *ast.AssignStmt:
			if isFloatAccumulation(pkg, rs, n) {
				reason = "floating-point accumulation into outer state"
			}
		}
		return true
	})
	return reason
}

// snapSinkType names the snapshot type ("Encoder" or "Stream") sel is a
// method call on, or returns "". Every Encoder and Stream method moves
// bytes through the serialized stream, so calling any of them from a
// map-range body makes the snapshot bytes depend on iteration order — two
// snapshots of identical state would then fail to compare byte-equal. The
// sink-name table above cannot catch these: the methods are named after the
// scalar they move (U64, I64, String, …), so the receiver type is the
// signal.
func snapSinkType(pkg *Package, sel *ast.SelectorExpr) string {
	t := pkg.Info.TypeOf(sel.X)
	for _, name := range []string{"Encoder", "Stream"} {
		if isSnapType(t, name) {
			return name
		}
	}
	return ""
}

// isFloatAccumulation reports whether the assignment compounds (+=, -=, *=,
// /=) a floating-point variable declared outside the range statement.
func isFloatAccumulation(pkg *Package, rs *ast.RangeStmt, as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return false
	}
	lhs := as.Lhs[0]
	tv, ok := pkg.Info.Types[lhs]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return false
	}
	root := rootIdent(lhs)
	if root == nil {
		return true // e.g. indexing a map/slice expression: assume outer
	}
	obj := pkg.Info.Uses[root]
	if obj == nil {
		obj = pkg.Info.Defs[root]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// rootIdent unwraps selector/index/paren/star expressions to the base
// identifier, or nil when there is none.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
