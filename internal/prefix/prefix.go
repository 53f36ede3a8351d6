// Package prefix implements IP prefix arithmetic for IPv4 and IPv6.
//
// The central type is Prefix, an immutable, comparable value representing an
// IP prefix such as 168.122.0.0/16 or 2001:db8::/32. Prefix values are
// canonical (host bits are always zero), so they may be used directly as map
// keys and compared with ==.
//
// Internally a prefix is stored as a 128-bit address (two uint64 halves) with
// the network bits left-aligned, a bit length, and an address-family flag.
// IPv4 prefixes occupy the top 32 bits. This representation makes the
// operations the rest of the repository is built on — containment tests,
// parent/child/sibling navigation, canonical ordering — simple shift-and-mask
// arithmetic with no allocation.
package prefix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
)

// Family identifies the address family of a Prefix.
type Family uint8

// Address families.
const (
	IPv4 Family = 4
	IPv6 Family = 6
)

// String returns "IPv4" or "IPv6".
func (f Family) String() string {
	switch f {
	case IPv4:
		return "IPv4"
	case IPv6:
		return "IPv6"
	default:
		return fmt.Sprintf("Family(%d)", uint8(f))
	}
}

// MaxLen returns the maximum prefix length for the family: 32 or 128.
func (f Family) MaxLen() uint8 {
	if f == IPv4 {
		return 32
	}
	return 128
}

// Prefix is an immutable IP prefix. The zero value is not a valid prefix;
// use Make, Parse or MustParse.
type Prefix struct {
	hi, lo uint64 // network bits, left-aligned in 128 bits (IPv4 in top 32 of hi)
	len    uint8
	fam    Family
}

// Errors returned by Parse and Make. Parse reports every rejected string,
// an out-of-range length included, as ErrBadPrefix.
var (
	ErrBadPrefix = errors.New("prefix: malformed prefix")
	ErrBadLength = errors.New("prefix: length out of range")
)

// Make constructs a canonical Prefix from raw 128-bit left-aligned address
// halves, a length, and a family. Host bits beyond length are cleared.
func Make(fam Family, hi, lo uint64, length uint8) (Prefix, error) {
	if fam != IPv4 && fam != IPv6 {
		return Prefix{}, fmt.Errorf("%w: unknown family %d", ErrBadPrefix, fam)
	}
	if length > fam.MaxLen() {
		return Prefix{}, fmt.Errorf("%w: /%d exceeds /%d", ErrBadLength, length, fam.MaxLen())
	}
	if fam == IPv4 && lo != 0 {
		return Prefix{}, fmt.Errorf("%w: IPv4 address has bits beyond 32", ErrBadPrefix)
	}
	hi, lo = maskBits(hi, lo, length)
	return Prefix{hi: hi, lo: lo, len: length, fam: fam}, nil
}

// maskBits clears all bits at positions >= length (0-indexed from the MSB of hi).
func maskBits(hi, lo uint64, length uint8) (uint64, uint64) {
	switch {
	case length == 0:
		return 0, 0
	case length < 64:
		return hi &^ (math.MaxUint64 >> length), 0
	case length == 64:
		return hi, 0
	case length < 128:
		return hi, lo &^ (math.MaxUint64 >> (length - 64))
	default:
		return hi, lo
	}
}

// Parse parses a prefix in CIDR notation, e.g. "10.0.0.0/8" or "2001:db8::/32".
// The accepted syntax is net/netip's: no leading zeros in an octet or in the
// length, at most four hex digits per group, no zone, and an IPv6 address may
// end in a dotted quad ("::ffff:1.2.3.4/128"). Host bits are cleared.
func Parse(s string) (Prefix, error) {
	np, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %v", ErrBadPrefix, err)
	}
	if a := np.Addr(); a.Is4() {
		b := a.As4()
		return Make(IPv4, uint64(binary.BigEndian.Uint32(b[:]))<<32, 0, uint8(np.Bits()))
	}
	b := np.Addr().As16()
	return Make(IPv6, binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), uint8(np.Bits()))
}

// MustParse is like Parse but panics on error. Intended for tests and
// package-level literals.
func MustParse(s string) Prefix {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Family returns the address family.
func (p Prefix) Family() Family { return p.fam }

// Len returns the prefix length in bits.
func (p Prefix) Len() uint8 { return p.len }

// Bits returns the left-aligned 128-bit network address.
func (p Prefix) Bits() (hi, lo uint64) { return p.hi, p.lo }

// IsValid reports whether p was constructed by Make/Parse (the zero Prefix
// has family 0 and is invalid).
func (p Prefix) IsValid() bool { return p.fam == IPv4 || p.fam == IPv6 }

// MaxLen returns the maximum prefix length for p's family.
func (p Prefix) MaxLen() uint8 { return p.fam.MaxLen() }

// String formats the prefix in CIDR notation, the address in net/netip's
// canonical text form (RFC 5952; an IPv4-mapped address keeps its dotted quad).
func (p Prefix) String() string {
	if !p.IsValid() {
		return "invalid/0"
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], p.hi)
	binary.BigEndian.PutUint64(b[8:], p.lo)
	a := netip.AddrFrom16(b)
	if p.fam == IPv4 {
		a = netip.AddrFrom4([4]byte(b[:4]))
	}
	return netip.PrefixFrom(a, int(p.len)).String()
}

// Bit returns bit i of the network address (0 = most significant). It panics
// if i >= MaxLen().
func (p Prefix) Bit(i uint8) uint8 {
	if i >= p.MaxLen() {
		panic(fmt.Sprintf("prefix: bit index %d out of range for %s", i, p.fam))
	}
	if i < 64 {
		return uint8(p.hi >> (63 - i) & 1)
	}
	return uint8(p.lo >> (127 - i) & 1)
}

// Contains reports whether q is equal to or a subprefix of p. Prefixes of
// different families never contain one another.
func (p Prefix) Contains(q Prefix) bool {
	if p.fam != q.fam || q.len < p.len {
		return false
	}
	hi, lo := maskBits(q.hi, q.lo, p.len)
	return hi == p.hi && lo == p.lo
}

// Parent returns the prefix one bit shorter than p. It panics for length 0.
func (p Prefix) Parent() Prefix {
	if p.len == 0 {
		panic("prefix: Parent of /0")
	}
	hi, lo := maskBits(p.hi, p.lo, p.len-1)
	return Prefix{hi: hi, lo: lo, len: p.len - 1, fam: p.fam}
}

// Child returns the subprefix of p one bit longer, with the new bit set to
// bit (0 or 1). It panics if p is already at maximum length.
func (p Prefix) Child(bit uint8) Prefix {
	if p.len >= p.MaxLen() {
		panic("prefix: Child of maximum-length prefix")
	}
	hi, lo := p.hi, p.lo
	if bit != 0 {
		if p.len < 64 {
			hi |= 1 << (63 - p.len)
		} else {
			lo |= 1 << (127 - p.len)
		}
	}
	return Prefix{hi: hi, lo: lo, len: p.len + 1, fam: p.fam}
}

// Sibling returns the prefix that shares p's parent with the last bit
// flipped. It panics for length 0.
func (p Prefix) Sibling() Prefix {
	if p.len == 0 {
		panic("prefix: Sibling of /0")
	}
	hi, lo := p.hi, p.lo
	if p.len <= 64 {
		hi ^= 1 << (64 - p.len)
	} else {
		lo ^= 1 << (128 - p.len)
	}
	return Prefix{hi: hi, lo: lo, len: p.len, fam: p.fam}
}

// Compare orders prefixes canonically: by family (IPv4 first), then by
// network address, then by length (shorter first). It returns -1, 0 or 1.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.fam != q.fam:
		if p.fam < q.fam {
			return -1
		}
		return 1
	case p.hi != q.hi:
		if p.hi < q.hi {
			return -1
		}
		return 1
	case p.lo != q.lo:
		if p.lo < q.lo {
			return -1
		}
		return 1
	case p.len != q.len:
		if p.len < q.len {
			return -1
		}
		return 1
	}
	return 0
}

// NumSubprefixes returns the number of subprefixes of p with length exactly
// l, saturating at math.MaxUint64. It returns 0 when l < p.Len() or l exceeds
// the family maximum.
func (p Prefix) NumSubprefixes(l uint8) uint64 {
	if l < p.len || l > p.MaxLen() {
		return 0
	}
	d := l - p.len
	if d >= 64 {
		return math.MaxUint64
	}
	return 1 << d
}

// NumSubprefixesUpTo returns the total number of subprefixes of p with length
// in [p.Len(), maxLen], inclusive of p itself, saturating at math.MaxUint64.
func (p Prefix) NumSubprefixesUpTo(maxLen uint8) uint64 {
	if maxLen < p.len {
		return 0
	}
	if maxLen > p.MaxLen() {
		maxLen = p.MaxLen()
	}
	d := maxLen - p.len
	if d >= 63 {
		return math.MaxUint64
	}
	return (1 << (d + 1)) - 1 // 2^0 + 2^1 + ... + 2^d
}

// Subprefixes appends to dst every subprefix of p with length exactly l, in
// address order, and returns the extended slice. It panics if the expansion
// would exceed 1<<24 prefixes, which indicates a logic error upstream.
func (p Prefix) Subprefixes(dst []Prefix, l uint8) []Prefix {
	n := p.NumSubprefixes(l)
	if n == 0 {
		return dst
	}
	if n > 1<<24 {
		panic(fmt.Sprintf("prefix: refusing to expand %s to %d /%d subprefixes", p, n, l))
	}
	var rec func(q Prefix)
	rec = func(q Prefix) {
		if q.len == l {
			dst = append(dst, q)
			return
		}
		rec(q.Child(0))
		rec(q.Child(1))
	}
	rec(p)
	return dst
}

// CommonPrefixLen returns the length of the longest prefix containing both
// p and q, without materializing that ancestor: the hot paths (trie
// pre-sizing, finger inserts) only need the shared bit count.
// Both must share a family or CommonPrefixLen panics.
func CommonPrefixLen(p, q Prefix) uint8 {
	if p.fam != q.fam {
		panic("prefix: CommonPrefixLen across families")
	}
	l := p.len
	if q.len < l {
		l = q.len
	}
	if d := commonBits(p.hi, p.lo, q.hi, q.lo); d < l {
		return d
	}
	return l
}

// commonBits returns the number of leading bits shared by the two 128-bit values.
func commonBits(ahi, alo, bhi, blo uint64) uint8 {
	if x := ahi ^ bhi; x != 0 {
		return uint8(bits.LeadingZeros64(x))
	}
	if x := alo ^ blo; x != 0 {
		return 64 + uint8(bits.LeadingZeros64(x))
	}
	return 128
}
