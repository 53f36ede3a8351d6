// Package bgpsim simulates interdomain routing at the AS level to quantify
// the attacks of §2–§5: how much traffic a hijacker attracts under a
// subprefix hijack, a forged-origin subprefix hijack (the attack enabled by
// non-minimal maxLength ROAs), and a traditional same-prefix forged-origin
// hijack — with and without route origin validation.
//
// Routing follows the standard Gao–Rexford model: every inter-AS link is a
// customer–provider or peer–peer relationship; an AS prefers customer routes
// over peer routes over provider routes, then shorter AS paths; and it
// exports customer-learned (and self-originated) routes to everyone but
// peer-/provider-learned routes only to its customers. Forwarding is
// hop-by-hop longest-prefix match, so an AS that filtered a hijacked
// subprefix can still hand packets to a neighbor that did not — exactly the
// dynamics that make subprefix hijacks devastating.
package bgpsim

import (
	"math/rand"

	"repro/internal/rpki"
)

// Rel is the relationship of a neighbor from the local AS's point of view.
type Rel int8

// Relationship kinds.
const (
	Customer Rel = iota // the neighbor is my customer
	Peer                // the neighbor is my peer
	Provider            // the neighbor is my provider
)

type edge struct {
	to  int
	rel Rel // relationship of `to` from the owning node's perspective
}

// Topology is an AS-level graph with business relationships. Nodes are dense
// ints; ASN returns the protocol-level AS number of a node.
type Topology struct {
	neighbors [][]edge
	asn       []rpki.ASN
}

// N returns the number of ASes.
func (t *Topology) N() int { return len(t.neighbors) }

// ASN returns the AS number assigned to node i.
func (t *Topology) ASN(i int) rpki.ASN { return t.asn[i] }

// AddLink records a provider→customer or peer↔peer relationship between
// nodes a and b. rel is b's role from a's perspective.
func (t *Topology) AddLink(a, b int, rel Rel) {
	t.neighbors[a] = append(t.neighbors[a], edge{to: b, rel: rel})
	var back Rel
	switch rel {
	case Customer:
		back = Provider
	case Provider:
		back = Customer
	default:
		back = Peer
	}
	t.neighbors[b] = append(t.neighbors[b], edge{to: a, rel: back})
}

// NewTopology creates an empty topology with n nodes, ASNs 1..n.
func NewTopology(n int) *Topology {
	t := &Topology{neighbors: make([][]edge, n), asn: make([]rpki.ASN, n)}
	for i := range t.asn {
		t.asn[i] = rpki.ASN(i + 1)
	}
	return t
}

// GenerateParams tunes the synthetic Internet topology.
type GenerateParams struct {
	Seed     int64
	N        int     // total ASes (>= 16)
	Tier1    int     // clique size (default 8)
	MidShare float64 // share of ASes in the middle tier (default 0.15)
}

// Generate builds a three-tier synthetic AS graph: a full-mesh tier-1
// clique, a middle tier multihomed to tier 1 with some lateral peering, and
// edge ASes homed to 1–3 middle-tier providers. The shape mimics the
// customer-cone structure that drives the traffic-split behavior of
// forged-origin hijacks ([16], cited by §4–§5).
func Generate(p GenerateParams) *Topology {
	if p.N < 16 {
		p.N = 16
	}
	if p.Tier1 <= 1 {
		p.Tier1 = 8
	}
	if p.MidShare <= 0 {
		p.MidShare = 0.15
	}
	rng := rand.New(rand.NewSource(p.Seed))
	t := NewTopology(p.N)
	nMid := int(float64(p.N) * p.MidShare)
	if nMid < p.Tier1 {
		nMid = p.Tier1
	}
	midLo, midHi := p.Tier1, p.Tier1+nMid // [midLo, midHi) middle tier
	if midHi > p.N {
		midHi = p.N
	}
	// Tier-1 clique: all peers.
	for i := 0; i < p.Tier1; i++ {
		for j := i + 1; j < p.Tier1; j++ {
			t.AddLink(i, j, Peer)
		}
	}
	// Middle tier: 2 tier-1 providers each, some lateral peering.
	for i := midLo; i < midHi; i++ {
		p1 := rng.Intn(p.Tier1)
		p2 := (p1 + 1 + rng.Intn(p.Tier1-1)) % p.Tier1
		t.AddLink(p1, i, Customer)
		t.AddLink(p2, i, Customer)
		if i > midLo && rng.Float64() < 0.3 {
			t.AddLink(i, midLo+rng.Intn(i-midLo), Peer)
		}
	}
	// Edge: 1-3 middle-tier providers each.
	for i := midHi; i < p.N; i++ {
		k := 1 + rng.Intn(3)
		seen := map[int]bool{}
		for j := 0; j < k; j++ {
			prov := midLo + rng.Intn(midHi-midLo)
			if seen[prov] {
				continue
			}
			seen[prov] = true
			t.AddLink(prov, i, Customer)
		}
	}
	return t
}
