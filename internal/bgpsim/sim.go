package bgpsim

import (
	"repro/internal/prefix"
	"repro/internal/rov"
	"repro/internal/rpki"
)

// Announcement is one BGP origination in the simulation: node Announcer
// announces Prefix with an (optionally forged) AS path suffix. For a
// legitimate origination PathSuffix is [ASN(Announcer)]; a forged-origin
// hijacker appends the victim's ASN: [ASN(attacker), ASN(victim)].
type Announcement struct {
	Prefix     prefix.Prefix
	Announcer  int        // topology node that injects the route
	PathSuffix []rpki.ASN // path as announced; last element is the claimed origin
}

// ClaimedOrigin is the origin AS a validator sees.
func (a Announcement) ClaimedOrigin() rpki.ASN { return a.PathSuffix[len(a.PathSuffix)-1] }

// route is a node's chosen path to one announcement.
type route struct {
	class  Rel // relationship class the route was learned over (Customer best)
	length int // AS-path length including the suffix
	next   int // next-hop node (the announcer itself at the origin)
	ann    int // index into the announcement list
	valid  bool
}

// better reports whether r is preferred over s under Gao–Rexford economics:
// customer < peer < provider class (Customer == 0 is best), then shorter
// path, then lower next-hop node for determinism.
func (r route) better(s route) bool {
	if !s.valid {
		return r.valid
	}
	if !r.valid {
		return false
	}
	if r.class != s.class {
		return r.class < s.class
	}
	if r.length != s.length {
		return r.length < s.length
	}
	return r.next < s.next
}

// Config controls a simulation run.
type Config struct {
	// VRPs, when non-nil, enables route origin validation at validating
	// ASes: announcements whose (prefix, claimed origin) validate as Invalid
	// are dropped.
	VRPs *rpki.Set
	// ValidatingShare in [0,1] is the fraction of ASes performing ROV
	// (chosen deterministically as the lowest node ids). 1 = everyone.
	ValidatingShare float64
}

// Outcome is the routing result: for every announced prefix and every node,
// the chosen route (announcement and next hop).
type Outcome struct {
	topo     *Topology
	anns     []Announcement
	routes   [][]route // [prefixGroup][node]
	prefixes []prefix.Prefix
}

// Simulate computes, for every announced prefix, every AS's chosen route
// under Gao–Rexford preferences and export rules, with optional ROV
// filtering. Announcements of the same prefix compete; distinct prefixes
// propagate independently (BGP keeps per-prefix state).
func Simulate(t *Topology, anns []Announcement, cfg Config) *Outcome {
	// An announcement's validation state is loop-invariant — it depends only
	// on (prefix, claimed origin), never on the node or the round — so
	// classify every announcement once up front with one batch instead of
	// re-validating inside the Bellman–Ford fixpoint (which visits each
	// announcement O(nodes × rounds) times).
	var invalid []bool
	if cfg.VRPs != nil {
		ix := rov.NewIndex(cfg.VRPs)
		routes := make([]rov.Route, len(anns))
		for i, a := range anns {
			routes[i] = rov.Route{Prefix: a.Prefix, Origin: a.ClaimedOrigin()}
		}
		invalid = make([]bool, len(anns))
		for i, s := range ix.ValidateBatch(routes, nil) {
			invalid[i] = s == rov.Invalid
		}
	}
	validators := int(cfg.ValidatingShare * float64(t.N()))
	validates := func(node int) bool { return invalid != nil && node < validators }

	// Group announcements by prefix.
	groupOf := map[prefix.Prefix]int{}
	var prefixes []prefix.Prefix
	groups := [][]int{}
	for i, a := range anns {
		g, ok := groupOf[a.Prefix]
		if !ok {
			g = len(prefixes)
			groupOf[a.Prefix] = g
			prefixes = append(prefixes, a.Prefix)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	out := &Outcome{topo: t, anns: anns, prefixes: prefixes, routes: make([][]route, len(prefixes))}
	for g, annIdx := range groups {
		out.routes[g] = simulatePrefix(t, anns, annIdx, invalid, validates)
	}
	return out
}

// simulatePrefix runs Bellman-Ford-style rounds to a fixpoint for one
// prefix's competing announcements. The preference order is total and the
// candidate space finite, so iteration converges in the Gao–Rexford model.
func simulatePrefix(t *Topology, anns []Announcement, annIdx []int, invalid []bool, validates func(int) bool) []route {
	n := t.N()
	best := make([]route, n)
	isOrigin := make([]bool, n)
	for _, ai := range annIdx {
		a := anns[ai]
		r := route{class: Customer, length: len(a.PathSuffix) - 1, next: a.Announcer, ann: ai, valid: true}
		// The announcer holds its own route as a maximally preferred,
		// always-exportable route whose length reflects any forged suffix.
		if r.better(best[a.Announcer]) {
			best[a.Announcer] = r
			isOrigin[a.Announcer] = true
		}
	}
	dropped := func(node int, ai int) bool {
		return validates(node) && invalid[ai]
	}
	for changed := true; changed; {
		changed = false
		for node := 0; node < n; node++ {
			if isOrigin[node] {
				continue // origins keep their own route
			}
			for _, e := range t.neighbors[node] {
				nb := e.to
				r := best[nb]
				if !r.valid {
					continue
				}
				// Export rule at nb: customer-learned and self-originated
				// routes go to everyone; peer-/provider-learned routes only
				// to nb's customers (node is nb's customer iff nb is node's
				// provider).
				if !isOrigin[nb] && r.class != Customer && e.rel != Provider {
					continue
				}
				cand := route{class: e.rel, length: r.length + 1, next: nb, ann: r.ann, valid: true}
				if dropped(node, cand.ann) {
					continue
				}
				if cand.better(best[node]) {
					best[node] = cand
					changed = true
				}
			}
		}
	}
	return best
}

// Forward traces a packet from src addressed to dst through per-hop
// longest-prefix-match forwarding along each node's installed next hop, and
// returns the node where it lands (an announcer) or -1 if unroutable or
// caught in a deflection loop.
func (o *Outcome) Forward(src int, dst prefix.Prefix) int {
	visited := make(map[int]bool)
	node := src
	for !visited[node] {
		visited[node] = true
		g := o.lpmGroup(node, dst)
		if g < 0 {
			return -1
		}
		r := o.routes[g][node]
		if node == o.anns[r.ann].Announcer {
			return node
		}
		node = r.next
	}
	return -1 // forwarding loop caused by inconsistent LPM views
}

// lpmGroup picks the longest-prefix-match group at node for destination dst
// among prefixes the node has a route for.
func (o *Outcome) lpmGroup(node int, dst prefix.Prefix) int {
	bestG := -1
	bestLen := int16(-1)
	for g, p := range o.prefixes {
		if !o.routes[g][node].valid {
			continue
		}
		if p.Contains(dst) && int16(p.Len()) > bestLen {
			bestG, bestLen = g, int16(p.Len())
		}
	}
	return bestG
}

// CaptureRate returns the fraction of ASes (excluding all announcers) whose
// traffic to dst lands at attacker.
func (o *Outcome) CaptureRate(attacker int, dst prefix.Prefix) float64 {
	total, captured := 0, 0
	for node := 0; node < o.topo.N(); node++ {
		if o.isAnnouncer(node) {
			continue
		}
		total++
		if o.Forward(node, dst) == attacker {
			captured++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(captured) / float64(total)
}

func (o *Outcome) isAnnouncer(node int) bool {
	for _, a := range o.anns {
		if a.Announcer == node {
			return true
		}
	}
	return false
}

// Chosen returns the announcement index node selected for prefix p, or -1.
func (o *Outcome) Chosen(node int, p prefix.Prefix) int {
	for g, q := range o.prefixes {
		if q == p {
			if r := o.routes[g][node]; r.valid {
				return r.ann
			}
			return -1
		}
	}
	return -1
}
