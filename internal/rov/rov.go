// Package rov implements BGP Prefix Origin Validation (RFC 6811): given the
// Validated ROA Payloads a router learned from its RPKI cache, classify a
// route announcement as Valid, Invalid, or NotFound.
//
// The definitions follow RFC 6811 §2 exactly:
//
//   - A VRP "covers" a route when the VRP prefix contains the route prefix
//     (ignoring maxLength and origin).
//   - A VRP "matches" a route when it covers it, the route's origin equals
//     the VRP's AS, and the route prefix length does not exceed maxLength.
//   - A route is Valid if at least one VRP matches it, Invalid if at least
//     one VRP covers it but none matches, and NotFound if no VRP covers it.
//
// The paper's attacks live precisely in this classifier's gaps: a
// forged-origin subprefix hijack is *Valid* here whenever a non-minimal ROA
// authorizes the hijacked subprefix (§4).
//
// Index (index.go) is the serving-path validator: per family, a radix root
// over the top 16 address bits whose slots hold the path-compressed tries of
// their /16s, and a short-prefix trie for the VRPs shorter than /16 — the
// prefixes with VRPs and the points where two part ways, in one node slab a
// family, with a parallel value slab — answering single queries and batches.
// Table (table.go) wraps it with in-place RTR delta updates under an atomic
// snapshot swap, each snapshot in the shape a build makes, and LiveIndex
// (live.go) is a Table that validates against its current snapshot, from the
// moment a delivered table is published. CompactIndex (compact.go) is another
// name for Index.
// Reference (below) is a linear scan used to cross-check them in property
// and fuzz tests.
package rov

import (
	"fmt"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// State is the RFC 6811 validation state of a route.
type State uint8

// Validation states.
const (
	NotFound State = iota // no covering VRP
	Invalid               // covered but not matched
	Valid                 // matched
)

// String returns "NotFound", "Invalid" or "Valid".
func (s State) String() string {
	switch s {
	case NotFound:
		return "NotFound"
	case Invalid:
		return "Invalid"
	case Valid:
		return "Valid"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Route is one origin-validation query: an announced prefix and the origin
// AS the validator sees for it.
type Route struct {
	Prefix prefix.Prefix
	Origin rpki.ASN
}

// Reference is the obviously-correct linear-scan validator used to
// cross-check Index.
type Reference struct {
	vrps []rpki.VRP
}

// NewReference builds a reference validator.
func NewReference(s *rpki.Set) *Reference {
	return &Reference{vrps: s.VRPs()}
}

// Validate classifies route (p, origin) by scanning every VRP.
func (r *Reference) Validate(p prefix.Prefix, origin rpki.ASN) State {
	state := NotFound
	for _, v := range r.vrps {
		if !v.Covers(p) {
			continue
		}
		if v.Matches(p, origin) {
			return Valid
		}
		state = Invalid
	}
	return state
}
