package lint

// The type-facts layer: a shared, cross-package inventory built once per
// RunAnalyzers invocation and handed to every analyzer. It answers the
// questions the struct-coverage rules (S001 snapshot coverage, R001 reset
// coverage, D005 shard isolation) all need:
//
//   - which named struct types exist, with every field's declaration
//     position and its field-level annotations (//snap:skip, //reset:keep);
//   - which function declarations exist, keyed by their types.Func object,
//     so a statically-resolved call site anywhere in the module maps back
//     to the callee's body — the basis for the arena-reachability walk and
//     the save-graph sweep;
//   - field identity: a *types.Var seen at a selector resolves to the
//     FieldFact (and owning TypeFact) it was declared as, across packages.
//
// Field annotations mirror the //lint: directive contract: a reason is
// mandatory, and a directive that excuses nothing is itself reported by the
// U001 stale-suppression audit.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FieldDirective is one field-level annotation: //snap:skip (S001) or
// //reset:keep (R001), written in the field's doc or trailing comment.
type FieldDirective struct {
	// Kind is "snap:skip" or "reset:keep".
	Kind string
	// Reason is the justification text; empty means the directive excuses
	// nothing (and U001 reports it as missing a reason).
	Reason string
	Pos    token.Pos
	Pkg    *Package
	used   bool
}

// FieldFact is one struct field: name, declaration position, its types.Var
// identity, and any coverage annotations.
type FieldFact struct {
	Name string
	Pos  token.Pos
	Var  *types.Var
	// Owner is the struct type declaring this field.
	Owner *TypeFact
	// SnapSkip excuses the field from S001 snapshot coverage.
	SnapSkip *FieldDirective
	// ResetKeep excuses the field from R001 reset coverage.
	ResetKeep *FieldDirective
}

// TypeFact is one named struct type with its field inventory.
type TypeFact struct {
	Obj *types.TypeName
	Pkg *Package
	// DeclFile is the full filename of the file declaring the type.
	DeclFile string
	Fields   []*FieldFact
}

// FuncFact is one function or method declaration with a body.
type FuncFact struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Facts is the shared cross-package fact base for one analysis run.
type Facts struct {
	// Types indexes every named struct type declared in the analyzed
	// packages.
	Types map[*types.TypeName]*TypeFact
	// Funcs indexes every function/method declaration with a body.
	Funcs map[*types.Func]*FuncFact
	// fields resolves a field object (as returned by a selection) to its
	// declaration fact.
	fields map[*types.Var]*FieldFact
	// directives lists every field-level annotation, for the U001 audit.
	directives []*FieldDirective

	// Lazily computed cross-package analyses, built once per run (S001's
	// save-graph sweep, R001's reachability walk).
	snap  *snapFacts
	reset *resetFacts
}

// BuildFacts inventories types and functions across all analyzed packages.
func BuildFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Types:  make(map[*types.TypeName]*TypeFact),
		Funcs:  make(map[*types.Func]*FuncFact),
		fields: make(map[*types.Var]*FieldFact),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok == token.TYPE {
						for _, spec := range d.Specs {
							f.addType(pkg, spec.(*ast.TypeSpec))
						}
					}
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						f.Funcs[fn] = &FuncFact{Fn: fn, Decl: d, Pkg: pkg}
					}
				}
			}
		}
	}
	return f
}

// addType records one struct type declaration and its fields.
func (f *Facts) addType(pkg *Package, spec *ast.TypeSpec) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	obj, ok := pkg.Info.Defs[spec.Name].(*types.TypeName)
	if !ok {
		return
	}
	tf := &TypeFact{
		Obj:      obj,
		Pkg:      pkg,
		DeclFile: pkg.position(spec.Pos()).Filename,
	}
	// Pair AST fields with the types.Struct field objects positionally:
	// each name is one field, an embedded field is one field.
	var tstruct *types.Struct
	if named, ok := obj.Type().(*types.Named); ok {
		tstruct, _ = named.Underlying().(*types.Struct)
	}
	idx := 0
	for _, field := range st.Fields.List {
		snapSkip, resetKeep := parseFieldDirectives(f, pkg, field)
		record := func(name string, pos token.Pos) {
			if tstruct == nil || idx >= tstruct.NumFields() {
				return
			}
			ff := &FieldFact{
				Name:      name,
				Pos:       pos,
				Var:       tstruct.Field(idx),
				Owner:     tf,
				SnapSkip:  snapSkip,
				ResetKeep: resetKeep,
			}
			idx++
			tf.Fields = append(tf.Fields, ff)
			f.fields[ff.Var] = ff
		}
		if len(field.Names) == 0 {
			// Embedded field: named after its type.
			if tstruct != nil && idx < tstruct.NumFields() {
				record(tstruct.Field(idx).Name(), field.Type.Pos())
			}
			continue
		}
		for _, name := range field.Names {
			record(name.Name, name.Pos())
		}
	}
	f.Types[obj] = tf
}

// parseFieldDirectives extracts //snap:skip and //reset:keep annotations
// from a field's doc and trailing comments.
func parseFieldDirectives(f *Facts, pkg *Package, field *ast.Field) (snapSkip, resetKeep *FieldDirective) {
	scan := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			for _, kind := range []string{"snap:skip", "reset:keep"} {
				rest, ok := strings.CutPrefix(text, kind)
				if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
					continue
				}
				d := &FieldDirective{
					Kind:   kind,
					Reason: strings.TrimSpace(rest),
					Pos:    c.Pos(),
					Pkg:    pkg,
				}
				f.directives = append(f.directives, d)
				if kind == "snap:skip" && snapSkip == nil {
					snapSkip = d
				} else if kind == "reset:keep" && resetKeep == nil {
					resetKeep = d
				}
			}
		}
	}
	scan(field.Doc)
	scan(field.Comment)
	return snapSkip, resetKeep
}

// calleeOf resolves a call expression to the module function declaration it
// statically invokes: direct calls, method calls on concrete receivers, and
// package-qualified calls. Dynamic calls (interface methods, function
// values) resolve to nil.
func (f *Facts) calleeOf(pkg *Package, call *ast.CallExpr) *FuncFact {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f.Funcs[fn]
		}
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[fun]; sel != nil {
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					return f.Funcs[fn]
				}
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f.Funcs[fn]
		}
	}
	return nil
}

// recvTypeName returns the named type a method's receiver is declared on
// (through a pointer), or nil for plain functions.
func recvTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// namedOf unwraps pointers and returns the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isSnapType reports whether t is (a pointer to) the named type
// snap.<name> — matched structurally by type and package name, so fixtures
// importing the real snap package resolve the same way the module does.
func isSnapType(t types.Type, name string) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == "snap"
}

// unparen strips any parentheses around an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// passesStream reports whether the call hands a *snap.Stream argument on.
func passesStream(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isSnapType(info.TypeOf(arg), "Stream") {
			return true
		}
	}
	return false
}
