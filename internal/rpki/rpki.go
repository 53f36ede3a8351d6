// Package rpki defines the RPKI data model used throughout the repository:
// autonomous system numbers, Route Origin Authorizations (ROAs, RFC 6482),
// and Validated ROA Payloads (VRPs) — the (IP prefix, maxLength, origin AS)
// tuples that an RPKI local cache pushes to routers (Figure 1 of the paper)
// and that the compression algorithm of §7 operates on.
//
// A VRP (p, m, AS) authorizes AS to originate every subprefix q of p with
// p.Len() <= q.Len() <= m. A ROA groups a set of {prefix, maxLength} entries
// under one origin AS and one signature; expanding its entries yields VRPs.
package rpki

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/prefix"
)

// ASN is an autonomous system number.
type ASN uint32

// String formats the ASN in the conventional "AS64496" form.
func (a ASN) String() string { return "AS" + strconv.FormatUint(uint64(a), 10) }

// ParseASN parses "AS64496", "as64496" or a bare "64496".
func ParseASN(s string) (ASN, error) {
	if len(s) > 2 && (s[0] == 'A' || s[0] == 'a') && (s[1] == 'S' || s[1] == 's') {
		s = s[2:]
	}
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("rpki: bad ASN %q: %v", s, err)
	}
	return ASN(n), nil
}

// ROAPrefix is one {prefix, maxLength} entry within a ROA.
type ROAPrefix struct {
	Prefix    prefix.Prefix
	MaxLength uint8
}

// Validate checks the RFC 6482 constraint len(prefix) <= maxLength <= family max.
func (rp ROAPrefix) Validate() error {
	if !rp.Prefix.IsValid() {
		return errors.New("rpki: invalid prefix in ROA entry")
	}
	if rp.MaxLength < rp.Prefix.Len() || rp.MaxLength > rp.Prefix.MaxLen() {
		return fmt.Errorf("rpki: maxLength %d out of range [%d,%d] for %s",
			rp.MaxLength, rp.Prefix.Len(), rp.Prefix.MaxLen(), rp.Prefix)
	}
	return nil
}

// UsesMaxLength reports whether the entry's maxLength exceeds the prefix
// length, i.e. whether it "uses the maxLength feature" in the paper's sense.
func (rp ROAPrefix) UsesMaxLength() bool { return rp.MaxLength > rp.Prefix.Len() }

// String renders the paper's notation, e.g. "168.122.0.0/16-24", omitting the
// "-m" suffix when maxLength equals the prefix length.
func (rp ROAPrefix) String() string {
	if rp.UsesMaxLength() {
		return rp.Prefix.String() + "-" + strconv.Itoa(int(rp.MaxLength))
	}
	return rp.Prefix.String()
}

// ROA is a Route Origin Authorization: a set of prefix entries authorized to
// one origin AS. (The cryptographic envelope lives in package rpkix.)
type ROA struct {
	AS       ASN
	Prefixes []ROAPrefix
}

// Validate checks every entry of the ROA.
func (r ROA) Validate() error {
	if len(r.Prefixes) == 0 {
		return errors.New("rpki: ROA with no prefixes")
	}
	for _, rp := range r.Prefixes {
		if err := rp.Validate(); err != nil {
			return fmt.Errorf("%w (in ROA for %s)", err, r.AS)
		}
	}
	return nil
}

// VRPs expands the ROA into its validated payload tuples.
func (r ROA) VRPs() []VRP {
	out := make([]VRP, 0, len(r.Prefixes))
	for _, rp := range r.Prefixes {
		out = append(out, VRP{Prefix: rp.Prefix, MaxLength: rp.MaxLength, AS: r.AS})
	}
	return out
}

// VRP is a Validated ROA Payload: the (IP prefix, maxLength, origin AS) tuple
// of RFC 6811 / RFC 6810. VRP is comparable and may be used as a map key.
type VRP struct {
	Prefix    prefix.Prefix
	MaxLength uint8
	AS        ASN
}

// Validate checks the maxLength range constraint.
func (v VRP) Validate() error {
	return ROAPrefix{Prefix: v.Prefix, MaxLength: v.MaxLength}.Validate()
}

// UsesMaxLength reports whether maxLength exceeds the prefix length.
func (v VRP) UsesMaxLength() bool { return v.MaxLength > v.Prefix.Len() }

// Covers reports whether the VRP covers route announcement (p, as) in the
// RFC 6811 sense: v.Prefix contains p (regardless of origin or maxLength).
func (v VRP) Covers(p prefix.Prefix) bool { return v.Prefix.Contains(p) }

// Matches reports whether the VRP authorizes origin as to announce p:
// the prefix is covered, its length does not exceed maxLength, and the
// origin matches.
func (v VRP) Matches(p prefix.Prefix, as ASN) bool {
	return v.AS == as && p.Len() <= v.MaxLength && v.Prefix.Contains(p)
}

// AuthorizedCount returns the number of distinct (prefix, AS) routes this VRP
// authorizes, saturating at the uint64 maximum.
func (v VRP) AuthorizedCount() uint64 { return v.Prefix.NumSubprefixesUpTo(v.MaxLength) }

// String renders "168.122.0.0/16-24 => AS111".
func (v VRP) String() string {
	return ROAPrefix{Prefix: v.Prefix, MaxLength: v.MaxLength}.String() + " => " + v.AS.String()
}

// Compare orders VRPs by AS, then prefix (canonical order), then maxLength.
func (v VRP) Compare(w VRP) int {
	switch {
	case v.AS != w.AS:
		if v.AS < w.AS {
			return -1
		}
		return 1
	}
	if c := v.Prefix.Compare(w.Prefix); c != 0 {
		return c
	}
	switch {
	case v.MaxLength < w.MaxLength:
		return -1
	case v.MaxLength > w.MaxLength:
		return 1
	}
	return 0
}

// Set is a normalized collection of VRPs: sorted, deduplicated. The zero
// value is an empty set ready to use.
type Set struct {
	vrps []VRP
}

// NewSet builds a normalized Set from the given tuples. The input slice is
// neither retained nor modified.
func NewSet(vrps []VRP) *Set { return &Set{vrps: normalized(vrps)} }

// SetFromROAs expands a slice of ROAs into a normalized Set.
func SetFromROAs(roas []ROA) *Set {
	var all []VRP
	for _, r := range roas {
		all = append(all, r.VRPs()...)
	}
	return NewSet(all)
}

// SortedSet returns a Set of vrps, taking ownership of the slice when it is
// strictly ascending in canonical order already — what Compress writes — so
// that one comparison a tuple replaces NewSet's copy; the caller must not
// modify the slice afterwards. The slice is clipped to its length, so that an
// append to VRPs() copies instead of writing past the tuples into memory the
// Set owns. Any other input is normalized exactly as NewSet normalizes it,
// into a new slice, so the Set invariant always holds.
func SortedSet(vrps []VRP) *Set {
	if ascending(vrps) < len(vrps) {
		return NewSet(vrps)
	}
	return &Set{vrps: slices.Clip(vrps)}
}

// normalized returns vrps sorted and deduplicated, in a new slice. Input
// mostly arrives in canonical order already — a validator's list with the
// new tuples at its tail, Compress's output, a Set's own tuples — so only
// what follows the longest strictly ascending prefix is sorted, and merged
// in; input in no order at all is the case where that is everything.
func normalized(vrps []VRP) []VRP {
	k := ascending(vrps)
	return mergeTail(vrps[:k], vrps[k:])
}

// ascending returns the length of vrps' longest strictly ascending prefix.
func ascending(vrps []VRP) int {
	k := min(1, len(vrps))
	for k < len(vrps) && vrps[k-1].Compare(vrps[k]) < 0 {
		k++
	}
	return k
}

// mergeTail returns, in a new slice, the union of head, which is strictly
// ascending, and tail, which is in any order. Each tail tuple's place in
// head is found by binary search and the tuples between two places are
// copied in bulk: O(len(head)) moves plus a sort of the tail.
//
// One buffer serves as output and as the tail's sorting space: the tail is
// sorted at its end, and the merge, writing from the front, has written at
// most len(head)+j tuples when it reads the tail's j-th, so it never
// overtakes what it has yet to read.
func mergeTail(head, tail []VRP) []VRP {
	out := make([]VRP, len(head)+len(tail))
	sorted := out[len(head):]
	copy(sorted, tail)
	slices.SortFunc(sorted, VRP.Compare)
	w := 0
	for _, v := range slices.Compact(sorted) {
		n, dup := slices.BinarySearchFunc(head, v, VRP.Compare)
		w += copy(out[w:], head[:n])
		head = head[n:]
		if !dup {
			out[w] = v
			w++
		}
	}
	w += copy(out[w:], head)
	return out[:w]
}

// Len returns the number of distinct tuples — the "# PDUs" quantity of
// Table 1.
func (s *Set) Len() int { return len(s.vrps) }

// VRPs returns the tuples in canonical order. The returned slice is shared;
// callers must not modify it.
func (s *Set) VRPs() []VRP { return s.vrps }

// Add inserts tuples and re-normalizes.
func (s *Set) Add(vrps ...VRP) { s.vrps = mergeTail(s.vrps, vrps) }

// Equal reports whether the two sets contain exactly the same tuples
// (syntactic equality; for semantic route-set equality see package core).
func (s *Set) Equal(t *Set) bool {
	if len(s.vrps) != len(t.vrps) {
		return false
	}
	for i := range s.vrps {
		if s.vrps[i] != t.vrps[i] {
			return false
		}
	}
	return true
}

// Diff returns what turns s into t: the tuples only t holds, and the tuples
// only s holds, each in canonical order — one merge over the two sorted
// tables, in which runs both share cost an equality test a tuple.
func (s *Set) Diff(t *Set) (added, removed []VRP) {
	a, b := s.vrps, t.vrps
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			a, b = a[1:], b[1:]
		case a[0].Compare(b[0]) < 0:
			removed = append(removed, a[0])
			a = a[1:]
		default:
			added = append(added, b[0])
			b = b[1:]
		}
	}
	return append(added, b...), append(removed, a...)
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	return &Set{vrps: append([]VRP(nil), s.vrps...)}
}

// NextGroup splits the (AS, family) group at the head of vrps, a list in
// canonical order such as a Set's VRPs, from the rest of the list; the
// paper's algorithm builds one trie per AS per family. Called until rest is
// empty it yields the list's groups in canonical order, each a subslice of
// vrps: reading a list's groups costs one pass and no allocation. An empty
// list yields an empty group.
func NextGroup(vrps []VRP) (g OriginGroup, rest []VRP) {
	if len(vrps) == 0 {
		return OriginGroup{}, nil
	}
	as, fam := vrps[0].AS, vrps[0].Prefix.Family()
	j := 1
	for j < len(vrps) && vrps[j].AS == as && vrps[j].Prefix.Family() == fam {
		j++
	}
	return OriginGroup{AS: as, Family: fam, VRPs: vrps[:j]}, vrps[j:]
}

// OriginGroup is the slice of tuples for one (origin AS, address family).
type OriginGroup struct {
	AS     ASN
	Family prefix.Family
	VRPs   []VRP
}

// Stats summarizes a set the way §6 and §8 of the paper do.
type Stats struct {
	Tuples           int // total (prefix, maxLength, AS) tuples
	UsingMaxLength   int // tuples with maxLength > prefix length (§6: "12%")
	Origins          int // distinct origin ASes
	IPv4, IPv6       int // tuples per family
	AuthorizedRoutes uint64
}

// ComputeStats scans the set once and returns its summary.
func (s *Set) ComputeStats() Stats {
	var st Stats
	st.Tuples = len(s.vrps)
	seen := make(map[ASN]struct{})
	for _, v := range s.vrps {
		if v.UsesMaxLength() {
			st.UsingMaxLength++
		}
		if v.Prefix.Family() == prefix.IPv4 {
			st.IPv4++
		} else {
			st.IPv6++
		}
		seen[v.AS] = struct{}{}
		n := v.AuthorizedCount()
		if st.AuthorizedRoutes+n < st.AuthorizedRoutes { // saturate
			st.AuthorizedRoutes = ^uint64(0)
		} else {
			st.AuthorizedRoutes += n
		}
	}
	st.Origins = len(seen)
	return st
}

// MaxPermissive returns the maximally-permissive variant of the set (§6):
// every tuple's maxLength raised to the family maximum (/32 or /128), then
// re-normalized. The result bounds the compression achievable by maxLength
// and is, by construction, maximally vulnerable to forged-origin subprefix
// hijacks.
func (s *Set) MaxPermissive() *Set {
	out := make([]VRP, 0, len(s.vrps))
	for _, v := range s.vrps {
		v.MaxLength = v.Prefix.MaxLen()
		out = append(out, v)
	}
	t := &Set{vrps: normalized(out)}
	// Drop tuples whose prefix is contained in another tuple of the same AS
	// with the same (maximal) maxLength: they authorize nothing extra. This
	// mirrors the paper's lower-bound count, which counts the prefixes that
	// "would still need to be included".
	t.vrps = dropContained(t.vrps)
	return t
}

// dropContained removes tuples contained in an earlier same-AS tuple whose
// maxLength already covers everything the contained tuple authorizes.
// Input must be in canonical order.
func dropContained(vrps []VRP) []VRP {
	out := vrps[:0]
	var stack []VRP
	for _, v := range vrps {
		// Pop ancestors that cannot contain v (different AS/family or not a
		// containing prefix). Canonical order guarantees ancestors precede
		// descendants.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.AS == v.AS && top.Prefix.Contains(v.Prefix) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.MaxLength >= v.MaxLength {
				continue // fully subsumed
			}
		}
		out = append(out, v)
		stack = append(stack, v)
	}
	return out
}
