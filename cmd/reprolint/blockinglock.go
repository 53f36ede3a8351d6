package main

// blockinglock: the RTR and ROV layers serialize publishers and table
// writers behind sync.Mutex (rtr.Server.mu, rov.Table.mu). A blocking
// operation — a channel send or receive, a select with no default, a range
// over a channel, a network or PDU write — performed while such a lock is held
// turns one slow peer into a stall for everyone queued on the lock: exactly
// the notify-fan-out hazard of the cache server's UpdateSet path (ROADMAP
// item 2). The check composes a may-block summary bottom-up over the call
// graph (a function may block if its body holds a blocking primitive or it
// calls, on its own goroutine, a function that may) and then walks every
// function in its scope (lockScoped), reporting each blocking primitive and
// each call to a may-block function made with a lock held, with the call
// chain down to the primitive.

import (
	"go/ast"
	"strings"
)

var blockingLockAnalyzer = &Analyzer{
	Name: "blockinglock",
	Doc: "flags blocking operations, and calls that may reach one, made while a sync.Mutex/RWMutex is held in internal/rtr + internal/rov; " +
		"only it sees a connection's start waiting under Server.mu for its writer to report that it runs, which go test -race -count=3 ./internal/rtr passes",
	Run: runBlockingLock,
}

// lockScoped is where blockinglock enforces its invariant: the packages that
// take mutexes, plus the check's testdata.
func lockScoped(path string) bool {
	return strings.Contains(path, "internal/rtr") ||
		strings.Contains(path, "internal/rov") ||
		strings.Contains(path, "testdata/src/")
}

func runBlockingLock(m *ModulePass) {
	g := m.Graph

	// The summary is module-wide: a scoped function may reach a blocking
	// primitive through a package outside the scope.
	own := make(map[*funcNode]*witness)
	for _, n := range g.nodes {
		if n.body == nil {
			continue
		}
		walkHeld(g, n, heldEvents{blocks: func(op blockingOp, _ heldSet) {
			if own[n] == nil {
				own[n] = &witness{pos: op.pos, desc: op.what}
			}
		}})
	}
	mayBlock := g.firstWitness(own)

	for _, n := range g.nodes {
		if n.body == nil || !lockScoped(n.pkg.Path) {
			continue
		}
		walkHeld(g, n, heldEvents{
			blocks: func(op blockingOp, held heldSet) {
				if len(held) == 0 {
					return
				}
				l := held.last()
				m.Reportf(op.pos, "%s while %s is held (locked at %s): a slow peer stalls every goroutine queued on the lock; release it first or make the operation non-blocking",
					op.what, l.key, m.Fset.Position(l.pos))
			},
			call: func(call *ast.CallExpr, callees []*funcNode, held heldSet) {
				if len(held) == 0 {
					return
				}
				for _, c := range callees {
					if w := mayBlock[c]; w != nil {
						l := held.last()
						m.Reportf(call.Pos(), "call to %s may block while %s is held (locked at %s): %s",
							c.name, l.key, m.Fset.Position(l.pos), w.via(c).detail(m.Fset))
						return
					}
				}
			},
		})
	}
}
