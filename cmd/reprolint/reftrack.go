package main

// reftrack.go: the one reference tracker under arenaptr and snapshotwrite.
// Both checks are the same analysis: a *source* expression yields a reference
// (a pointer into a node slab; a published snapshot), variables bound to it —
// directly or through another such variable — carry it, and certain *uses* of
// a carrier are violations. The tracker owns the middle part. The rule, in
// one sentence: an expression is derived from a source iff stripping the forms
// that alias storage (x, (x), x.f, x[i], x[a:b], *x, &x) reaches a source or a
// held variable, and a variable becomes held when it is assigned a derived
// expression and its type can carry a reference (pointer, slice, map) — so a
// struct or scalar copied out of the referent is a copy, and stays free.
//
// Bindings are keyed by types.Object, so one held map serves a whole module
// run: a closure capturing a held local resolves to the same object, which is
// all "the closure carries it too" needs. Nodes are tracked in call-graph
// order (a literal after its enclosing function) and each body in source
// order, once: Go declares before use, so `p := src; q := p` needs no
// fixpoint. The analysis is flow-insensitive — rebinding a held variable to
// something fresh does not release it.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// refBinding is one held reference: the first variable bound to it and every
// alias bound from that variable share the record.
type refBinding struct {
	obj     types.Object // the first variable bound
	stmt    ast.Node     // its binding statement (or parameter field)
	lastUse token.Pos    // last textual use of obj or any alias
}

type refTracker struct {
	// source reports whether evaluating e yields a reference of the kind the
	// check guards.
	source func(p *Package, e ast.Expr) bool
	held   map[types.Object]*refBinding
}

// inner returns the operand of the forms that alias their operand's storage —
// (x), x.f, x[i], x[a:b], *x, &x — or nil for any other expression.
func inner(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return x.X
	case *ast.SelectorExpr:
		return x.X
	case *ast.IndexExpr:
		return x.X
	case *ast.SliceExpr:
		return x.X
	case *ast.StarExpr:
		return x.X
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return x.X
		}
	}
	return nil
}

// derived reports whether e aliases storage reached from a source, and the
// binding it came through (nil when e contains the source itself).
func (t *refTracker) derived(p *Package, e ast.Expr) (*refBinding, bool) {
	for ; e != nil; e = inner(e) {
		if t.source(p, e) {
			return nil, true
		}
		if id, ok := e.(*ast.Ident); ok {
			b := t.held[objOf(p, id)]
			return b, b != nil
		}
	}
	return nil, false
}

// ref reports whether e is itself a reference derived from a source: derived,
// and of a type that can carry one.
func (t *refTracker) ref(p *Package, e ast.Expr) bool {
	_, ok := t.derived(p, e)
	return ok && canAlias(typeOfIn(p, e))
}

// track records the bindings and uses in n's own body and returns the
// bindings that start there, in source order.
func (t *refTracker) track(n *funcNode) (bound []*refBinding) {
	bind := func(lhs *ast.Ident, rhs ast.Expr, stmt ast.Node) {
		obj := objOf(n.pkg, lhs)
		if !isLocalVar(obj) || t.held[obj] != nil || !canAlias(obj.Type()) {
			return
		}
		b, ok := t.derived(n.pkg, rhs)
		if !ok {
			return
		}
		if b == nil {
			b = &refBinding{obj: obj, stmt: stmt}
			bound = append(bound, b)
		}
		t.held[obj] = b
	}
	n.inspect(func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && len(s.Lhs) == len(s.Rhs) {
					bind(id, s.Rhs[i], s)
				}
			}
		case *ast.ValueSpec:
			for i, id := range s.Names {
				if len(s.Names) == len(s.Values) {
					bind(id, s.Values[i], s)
				}
			}
		case *ast.Ident:
			if b := t.held[objOf(n.pkg, s)]; b != nil && s.Pos() > b.lastUse {
				b.lastUse = s.Pos()
			}
		}
		return true
	})
	return bound
}

// isLocalVar reports whether obj is a variable declared inside a function.
func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Parent() != v.Pkg().Scope()
}

// canAlias reports whether a value of type t shares storage with the value it
// was copied from.
func canAlias(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// objOf returns the object id uses or defines, or nil (the blank identifier).
func objOf(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}
