package main

// snapshotwrite: lock-free readers (rov.LiveIndex and anything built on the
// same idiom) depend on published snapshots being immutable — a writer never
// mutates a value a Load() may have handed to a concurrent reader; it path-
// copies into fresh cells and publishes a new root. The sources of a
// published snapshot:
//
//   - Load() on a sync/atomic.Pointer[T] of a T annotated //repro:immutable;
//   - a call to a function annotated //repro:immutable;
//   - a parameter of an annotated type, outside the type's own package (the
//     defining package holds the sanctioned construction and compaction
//     paths; Load() results are frozen everywhere, including there).
//
// reftrack.go follows them through every alias; the sink is any assignment
// that writes *through* one (x.f = v, x.s[i] = v, *p = v, x.f++). Rebinding
// the variable itself is fine, and so is writing to a struct copied out of a
// snapshot — the copy is the writer's own.

import (
	"go/ast"
	"go/types"
)

var snapshotWriteAnalyzer = &Analyzer{
	Name: "snapshotwrite",
	Doc:  "flags writes through values, and aliases of values, obtained from a snapshot Load() or annotated //repro:immutable",
	Run:  runSnapshotWrite,
}

// namedElem strips one pointer level from t and returns the named type under
// it, or nil.
func namedElem(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// atomicPointerElem returns T when t is sync/atomic.Pointer[T] (or *that).
func atomicPointerElem(t types.Type) types.Type {
	named := namedElem(t)
	if named == nil || named.Obj().Name() != "Pointer" || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "sync/atomic" || named.TypeArgs().Len() != 1 {
		return nil
	}
	return named.TypeArgs().At(0)
}

// immutablePkg returns the defining package's path when t is (a pointer to) a
// type annotated //repro:immutable.
func (f *Facts) immutablePkg(t types.Type) (string, bool) {
	named := namedElem(t)
	if named == nil || named.Obj().Pkg() == nil {
		return "", false
	}
	path := named.Obj().Pkg().Path()
	return path, f.ImmutableTypes[path+"."+named.Obj().Name()]
}

// isSnapshotSource reports whether evaluating e yields a published snapshot:
// a Load() on an atomic pointer to an annotated type, or a call to an
// annotated function.
func (f *Facts) isSnapshotSource(p *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	var callee *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		callee = fn
	case *ast.SelectorExpr:
		callee = fn.Sel
		if _, frozen := f.immutablePkg(atomicPointerElem(typeOfIn(p, fn.X))); frozen && callee.Name == "Load" {
			return true
		}
	}
	fn, ok := objOf(p, callee).(*types.Func)
	return ok && f.ImmutableFuncs[fn.FullName()]
}

func runSnapshotWrite(m *ModulePass) {
	t := &refTracker{source: m.Facts.isSnapshotSource, held: make(map[types.Object]*refBinding)}
	for _, n := range m.Graph.nodes {
		if n.body == nil {
			continue
		}
		// A parameter of an annotated foreign type arrives holding a snapshot.
		for _, field := range n.funcType().Params.List {
			for _, name := range field.Names {
				obj := objOf(n.pkg, name)
				if obj == nil || !canAlias(obj.Type()) {
					continue
				}
				if pkg, frozen := m.Facts.immutablePkg(obj.Type()); frozen && pkg != n.pkg.Path {
					t.held[obj] = &refBinding{obj: obj, stmt: field}
				}
			}
		}
		t.track(n)

		// The one sink scan: at least one selector/index/deref step between
		// the assigned location and a snapshot.
		through := func(lhs ast.Expr) {
			if _, ok := t.derived(n.pkg, inner(ast.Unparen(lhs))); ok {
				m.Reportf(lhs.Pos(), "write through a published snapshot: the value is //repro:immutable once published; path-copy into fresh cells and republish instead")
			}
		}
		n.inspect(func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					through(lhs)
				}
			case *ast.IncDecStmt:
				through(s.X)
			}
			return true
		})
	}
}
