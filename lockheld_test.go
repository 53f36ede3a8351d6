package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNothingBlocksUnderALock holds the router side's lock rule: nothing in
// internal/rtr or internal/rov blocks while it holds a mutex, for a slow
// router would then stall every goroutine queued on the lock (a publisher,
// a connection's start, Close). The scan reads each function body on its own
// and does not follow calls: a blocking call reached through a callee is
// left to the tests that run that path.
func TestNothingBlocksUnderALock(t *testing.T) {
	for _, dir := range []string{"internal/rtr", "internal/rov"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset, sites := token.NewFileSet(), 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			sites += scanLocks(f, func(pos token.Pos, msg string) {
				t.Errorf("%s: %s", fset.Position(pos), msg)
			})
		}
		if sites == 0 {
			t.Errorf("%s: no Lock or RLock call found, so the scan proves nothing", dir)
		}
	}
}

// TestScanLocks runs scanLocks over snippets whose verdict is known: want is
// the one finding, or "" for none.
func TestScanLocks(t *testing.T) {
	cases := []struct{ name, body, want string }{
		{"receive under a deferred Unlock", "s.mu.Lock(); defer s.mu.Unlock(); <-s.ch",
			"channel receive while s.mu is held"},
		{"Wait after an explicit Lock", "s.mu.Lock(); s.wg.Wait(); s.mu.Unlock()",
			"call to Wait while s.mu is held"},
		{"Unlock in one branch only", "s.mu.Lock(); if s.done { s.mu.Unlock(); return }; s.ch <- 1; s.mu.Unlock()",
			"channel send while s.mu is held"},
		{"select without a default", "s.mu.RLock(); defer s.mu.RUnlock(); select { case <-s.ch: case s.ch <- 1: }",
			"select without a default while s.mu is held"},
		{"receive after the Unlock", "s.mu.Lock(); s.n++; s.mu.Unlock(); <-s.ch", ""},
		{"select with a default", "s.mu.Lock(); defer s.mu.Unlock(); select { case <-s.ch: default: }", ""},
		{"receive in a goroutine started under the lock", "s.mu.Lock(); defer s.mu.Unlock(); go func() { <-s.ch }()", ""},
	}
	for _, tc := range cases {
		src := "package p\nfunc f(s *S) { " + tc.body + " }\n"
		f, err := parser.ParseFile(token.NewFileSet(), "", src, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		if sites := scanLocks(f, func(_ token.Pos, msg string) { got = append(got, msg) }); sites != 1 {
			t.Errorf("%s: %d lock sites, want 1", tc.name, sites)
		}
		if want := []string{tc.want}; tc.want == "" && len(got) != 0 || tc.want != "" && !slices.Equal(got, want) {
			t.Errorf("%s: findings %q, want %q", tc.name, got, tc.want)
		}
	}
}

// blockingCalls are the calls, by name, that wait on a peer or a clock.
var blockingCalls = []string{"Wait", "Sleep", "Flush", "ReadFull", "Copy", "WritePDU", "ReadPDU"}

// scanLocks reports each channel send or receive, select without a default,
// or blocking call made while a lock taken in the same function is held, and
// returns the number of Lock and RLock calls it saw. A deferred Unlock holds
// the lock to the end of the function; each branch body starts from a copy
// of what is held before it; function literals, goroutines among them, start
// with nothing held.
func scanLocks(f *ast.File, report func(token.Pos, string)) (sites int) {
	s := &lockScan{report: report}
	s.node(f, nil)
	return s.sites
}

type lockScan struct {
	report func(token.Pos, string)
	sites  int
}

// block walks a statement list in order. held names the locks held (s.mu),
// the last taken last; it is never changed in place, so a branch may share
// its caller's.
func (s *lockScan) block(list []ast.Stmt, held []string) {
	for _, st := range list {
		switch lock, op := lockOp(st); op {
		case "Lock", "RLock":
			s.sites++
			held = append(slices.Clip(held), lock)
		case "Unlock", "RUnlock":
			held = slices.DeleteFunc(slices.Clone(held), func(l string) bool { return l == lock })
		case "defer": // held to the end of the function
		default:
			s.node(st, held)
		}
	}
}

func (s *lockScan) node(n ast.Node, held []string) {
	ast.Inspect(n, func(n ast.Node) bool {
		var what string
		var pos token.Pos
		switch n := n.(type) {
		case *ast.BlockStmt:
			s.block(n.List, held)
			return false
		case *ast.CaseClause:
			s.block(n.Body, held)
			return false
		case *ast.CommClause: // its channel operation is the select's
			s.block(n.Body, held)
			return false
		case *ast.FuncLit:
			s.block(n.Body.List, nil)
			return false
		case *ast.GoStmt: // the call runs on its own goroutine, its operands here
			s.node(n.Call.Fun, held)
			for _, a := range n.Call.Args {
				s.node(a, held)
			}
			return false
		case *ast.SelectStmt:
			if !slices.ContainsFunc(n.Body.List, func(c ast.Stmt) bool { return c.(*ast.CommClause).Comm == nil }) {
				what, pos = "select without a default", n.Pos()
			}
		case *ast.SendStmt:
			what, pos = "channel send", n.Arrow
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what, pos = "channel receive", n.OpPos
			}
		case *ast.CallExpr:
			if name := calleeName(n); slices.Contains(blockingCalls, name) {
				what, pos = "call to "+name, n.Pos()
			}
		}
		if what != "" && len(held) > 0 {
			s.report(pos, what+" while "+held[len(held)-1]+" is held")
		}
		return true
	})
}

// lockOp returns the lock and the method of a statement x.Lock(), x.RLock(),
// x.Unlock() or x.RUnlock(), op "defer" for a deferred x.Unlock() or
// x.RUnlock(), and "" for any other statement.
func lockOp(st ast.Stmt) (lock, op string) {
	var call *ast.CallExpr
	switch st := st.(type) {
	case *ast.ExprStmt:
		call, _ = st.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		if lock, op := lockOp(&ast.ExprStmt{X: st.Call}); strings.HasSuffix(op, "Unlock") {
			return lock, "defer"
		}
	}
	if call == nil || len(call.Args) != 0 {
		return "", ""
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && slices.Contains([]string{"Lock", "RLock", "Unlock", "RUnlock"}, sel.Sel.Name) {
		return exprName(sel.X), sel.Sel.Name
	}
	return "", ""
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	}
	return "a lock"
}
