package main

// heldwalk.go: the walker that threads a held-lock set through a function
// body, and the classifier of blocking primitives, which blockinglock
// consumes.
//
// Flow rules: statements run in source order; a branch body gets a copy of the
// entry state and the state after the branch is the entry state (an unbalanced
// Lock inside a branch is under-approximated: it can miss, never false-positive
// on the joined path); `defer x.Unlock()` holds to function exit; function
// literals and spawned goroutines are their own call-graph nodes and start
// with nothing held.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// heldLock is one held mutex: its declaration-anchored name (lockKeyFor) and
// where it was acquired.
type heldLock struct {
	key string
	pos token.Pos
}

// heldSet lists the held locks in acquisition order, so a finding that names
// "the lock" names the most recently acquired one on every run.
type heldSet []heldLock

func (h heldSet) clone() *heldSet {
	c := append(heldSet(nil), h...)
	return &c
}

func (h heldSet) last() heldLock { return h[len(h)-1] }

func (h *heldSet) release(key string) {
	for i := len(*h) - 1; i >= 0; i-- {
		if (*h)[i].key == key {
			*h = append((*h)[:i], (*h)[i+1:]...)
			return
		}
	}
}

func (h *heldSet) acquire(key string, pos token.Pos) {
	h.release(key)
	*h = append(*h, heldLock{key, pos})
}

// heldEvents are the walker's two outputs; a nil handler is skipped. The
// held set passed to a handler is only valid during the call.
type heldEvents struct {
	// call fires at a call resolved to module functions that is neither a
	// lock operation nor a blocking primitive.
	call func(call *ast.CallExpr, callees []*funcNode, held heldSet)
	// blocks fires at every blocking primitive.
	blocks func(op blockingOp, held heldSet)
}

type heldWalker struct {
	g  *CallGraph
	n  *funcNode
	ev heldEvents
}

// walkHeld walks n's own body (nested literals excluded) from an empty held
// set, firing ev.
func walkHeld(g *CallGraph, n *funcNode, ev heldEvents) {
	w := &heldWalker{g: g, n: n, ev: ev}
	w.stmts(n.body.List, &heldSet{})
}

func (w *heldWalker) stmts(list []ast.Stmt, held *heldSet) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *heldWalker) stmt(s ast.Stmt, held *heldSet) {
	switch t := s.(type) {
	case *ast.ExprStmt:
		w.exprs(held, t.X)
	case *ast.SendStmt:
		w.exprs(held, t.Chan, t.Value)
		w.primitive(t, held)
	case *ast.AssignStmt:
		w.exprs(held, t.Rhs...)
		w.exprs(held, t.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(held, vs.Values...)
				}
			}
		}
	case *ast.DeferStmt:
		// Arguments are evaluated here; the call runs at exit with an
		// unknowable held set, so it is walked against a throwaway empty one:
		// `defer x.Unlock()` changes nothing, and a deferred blocking call
		// still counts as the function blocking.
		w.exprs(held, t.Call.Args...)
		w.call(t.Call, &heldSet{})
	case *ast.GoStmt:
		// The spawned goroutine holds none of our locks; only argument
		// evaluation happens here.
		w.exprs(held, t.Call.Args...)
	case *ast.IfStmt:
		w.stmt(t.Init, held)
		w.exprs(held, t.Cond)
		w.stmts(t.Body.List, held.clone())
		w.stmt(t.Else, held.clone())
	case *ast.ForStmt:
		w.stmt(t.Init, held)
		w.exprs(held, t.Cond)
		body := held.clone()
		w.stmts(t.Body.List, body)
		w.stmt(t.Post, body)
	case *ast.RangeStmt:
		w.exprs(held, t.X)
		w.primitive(t, held)
		w.stmts(t.Body.List, held.clone())
	case *ast.SwitchStmt:
		w.stmt(t.Init, held)
		w.exprs(held, t.Tag)
		w.clauses(t.Body, held)
	case *ast.TypeSwitchStmt:
		w.stmt(t.Init, held)
		w.stmt(t.Assign, held)
		w.clauses(t.Body, held)
	case *ast.SelectStmt:
		w.primitive(t, held)
		w.clauses(t.Body, held)
	case *ast.BlockStmt:
		w.stmts(t.List, held)
	case *ast.LabeledStmt:
		w.stmt(t.Stmt, held)
	case *ast.ReturnStmt:
		w.exprs(held, t.Results...)
	case *ast.IncDecStmt:
		w.exprs(held, t.X)
	}
}

// clauses walks every case of a switch or select body against its own copy of
// the entry state. A select comm's channel operation is the select's business
// (blocking or not is decided on the SelectStmt), so only its operands are
// walked.
func (w *heldWalker) clauses(body *ast.BlockStmt, held *heldSet) {
	for _, c := range body.List {
		branch := held.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			w.exprs(branch, cc.List...)
			w.stmts(cc.Body, branch)
		case *ast.CommClause:
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				w.exprs(branch, comm.Chan, comm.Value)
			case *ast.ExprStmt:
				w.exprs(branch, unparen(comm.X).(*ast.UnaryExpr).X)
			case *ast.AssignStmt:
				w.exprs(branch, unparen(comm.Rhs[0]).(*ast.UnaryExpr).X)
				w.exprs(branch, comm.Lhs...)
			}
			w.stmts(cc.Body, branch)
		}
	}
}

// exprs walks expressions in evaluation order.
func (w *heldWalker) exprs(held *heldSet, list ...ast.Expr) {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(nd ast.Node) bool {
			switch t := nd.(type) {
			case *ast.FuncLit:
				return false // its own node
			case *ast.CallExpr:
				w.call(t, held)
			case *ast.UnaryExpr:
				w.primitive(t, held)
			}
			return true
		})
	}
}

func (w *heldWalker) call(call *ast.CallExpr, held *heldSet) {
	if key, acquire, ok := lockOpKey(w.n, call); ok {
		if !acquire {
			held.release(key)
			return
		}
		held.acquire(key, call.Pos())
		return
	}
	if w.primitive(call, held) {
		return
	}
	if callees := w.g.resolveCall(w.n.pkg, call); len(callees) > 0 && w.ev.call != nil {
		w.ev.call(call, callees, *held)
	}
}

func (w *heldWalker) primitive(nd ast.Node, held *heldSet) bool {
	op, ok := blockingPrimitive(w.n.pkg, nd)
	if ok && w.ev.blocks != nil {
		w.ev.blocks(op, *held)
	}
	return ok
}

// lockOpKey classifies a call as Lock/RLock (acquire) or Unlock/RUnlock on a
// sync.Mutex/RWMutex and names the lock. RLock orders and holds like Lock: a
// reader and a writer on the same two locks in opposite orders still
// deadlock, and a blocked reader still stalls every writer.
func lockOpKey(n *funcNode, call *ast.CallExpr) (key string, acquire, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	recv := unparen(sel.X)
	if !isMutexType(typeOfIn(n.pkg, recv)) {
		return "", false, false
	}
	return lockKeyFor(n, recv), acquire, true
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockKeyFor anchors a mutex expression on its declaration so the same lock
// spells the same key in every function that touches it: "pkg.Type.field" for
// struct fields, "pkg.var" for package-level mutexes, "fn.var" for locals.
func lockKeyFor(n *funcNode, e ast.Expr) string {
	p := n.pkg
	switch t := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[t]; ok && s.Kind() == types.FieldVal {
			field := s.Obj()
			recv := s.Recv()
			if ptr, isPtr := recv.Underlying().(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				obj := named.Obj()
				pkgName := ""
				if obj.Pkg() != nil {
					pkgName = shortPkg(obj.Pkg().Path()) + "."
				}
				return pkgName + obj.Name() + "." + field.Name()
			}
		}
		// pkg.mu: a package-level mutex through a qualifier.
		if v, ok := p.Info.Uses[t.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return shortPkg(v.Pkg().Path()) + "." + v.Name()
		}
	case *ast.Ident:
		v, ok := p.Info.Uses[t].(*types.Var)
		if !ok {
			v, _ = p.Info.Defs[t].(*types.Var)
		}
		if v != nil {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return shortPkg(v.Pkg().Path()) + "." + v.Name()
			}
			return n.name + "." + v.Name()
		}
	}
	return n.name + "." + types.ExprString(e)
}

// blockingOp is one classified blocking primitive.
type blockingOp struct {
	pos  token.Pos
	what string // "channel send", "blocking call time.Sleep"
}

// blockingExternals are the calls that block on I/O, time or another
// goroutine, by (*types.Func).FullName(). The RTR PDU codec and bufio.Writer
// are listed because they read and write sockets through interfaces the call
// graph cannot follow: the cache's writer sends every byte through its
// connection's bufio.Writer. sync.Cond.Wait is deliberately absent: it must be
// called with the lock held.
var blockingExternals = map[string]bool{
	"time.Sleep":                  true,
	"io.ReadFull":                 true,
	"io.Copy":                     true,
	"(*sync.WaitGroup).Wait":      true,
	"(*bufio.Writer).Write":       true,
	"(*bufio.Writer).Flush":       true,
	"repro/internal/rtr.WritePDU": true,
	"repro/internal/rtr.ReadPDU":  true,
}

// blockingPrimitive decides whether one AST node blocks the goroutine that
// executes it: a channel send or receive, a select with no default, a range
// over a channel, or a call on the blockingExternals list.
func blockingPrimitive(p *Package, nd ast.Node) (blockingOp, bool) {
	switch t := nd.(type) {
	case *ast.SendStmt:
		return blockingOp{t.Arrow, "channel send"}, true
	case *ast.UnaryExpr:
		if t.Op == token.ARROW {
			return blockingOp{t.Pos(), "channel receive"}, true
		}
	case *ast.SelectStmt:
		for _, c := range t.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return blockingOp{}, false
			}
		}
		return blockingOp{t.Select, "select with no default"}, true
	case *ast.RangeStmt:
		if typ := typeOfIn(p, t.X); typ != nil {
			if _, isChan := typ.Underlying().(*types.Chan); isChan {
				return blockingOp{t.For, "range over a channel"}, true
			}
		}
	case *ast.CallExpr:
		var id *ast.Ident
		switch f := unparen(t.Fun).(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		}
		if fn, ok := p.Info.Uses[id].(*types.Func); ok && blockingExternals[fn.FullName()] {
			return blockingOp{t.Pos(), "blocking call " + shortFuncName(fn)}, true
		}
	}
	return blockingOp{}, false
}
