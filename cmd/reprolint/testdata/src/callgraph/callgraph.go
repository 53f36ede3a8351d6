// Package callgraph is the unit-test fixture for the call-graph builder:
// self-recursion, mutual recursion and interface dispatch, each pinned by
// TestCallGraph.
package callgraph

func fact(n int) int {
	if n <= 1 {
		return 1
	}
	return n * fact(n-1)
}

func ping(n int) int {
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int {
	if n == 0 {
		return 1
	}
	return ping(n - 1)
}

type Doer interface{ Do() int }

type A struct{}

func (A) Do() int { return 1 }

type B struct{ v int }

func (b *B) Do() int { return b.v }

func dispatch(d Doer) int { return d.Do() }

// use keeps every fixture reachable so the loader does not report unused
// declarations under vet-style review.
var use = []any{fact, ping, dispatch, A{}, &B{}}
