package prefix

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// paddedLength and longGroup name the two classes of string the hand-rolled
// parser took and net/netip refuses; dottedTail the one class netip adds.
var (
	paddedLength = regexp.MustCompile(`/0[0-9]+$`)
	longGroup    = regexp.MustCompile(`[0-9a-fA-F]{5,}`)
	dottedTail   = regexp.MustCompile(`:[0-9.]+/[0-9]+$`)
)

func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"10.0.0.0/8", "168.122.0.0/16", "0.0.0.0/0", "255.255.255.255/32",
		"2001:db8::/32", "::/0", "::1/128", "fe80::1:2:3/64",
		"", "/", "10.0.0.0", "10.0.0.0/", "x/8", "1:2::3::4/64",
		"999.1.1.1/8", "10.0.0.0/33", "2001:db8::/129",
		"::ffff:1.2.3.4/128", "10.0.0.0/08", "2001:00db8::/32", "fe80::1%eth0/64", "01.2.3.4/8",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		// Differential against the parser this package carried before it
		// delegated to net/netip: where both accept they agree, and the
		// accepted sets differ only by the three named classes.
		ref, refErr := refParse(s)
		switch {
		case err == nil && refErr == nil && p != ref:
			t.Fatalf("Parse(%q) = %v, reference parser says %v", s, p, ref)
		case err != nil && refErr == nil && !paddedLength.MatchString(s) && !longGroup.MatchString(s):
			t.Fatalf("Parse(%q) newly rejected outside the named classes: %v", s, err)
		case err == nil && refErr != nil && !dottedTail.MatchString(s):
			t.Fatalf("Parse(%q) newly accepted outside the named class (reference: %v)", s, refErr)
		}
		if err != nil {
			return
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", p, s, err)
		}
		if q != p {
			t.Fatalf("round trip changed %q: %v vs %v", s, q, p)
		}
	})
}

// refParse is the reference implementation for the differential above: the
// strings/strconv parser Parse was before it became net/netip's.
func refParse(s string) (Prefix, error) {
	slash := strings.LastIndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q missing '/'", ErrBadPrefix, s)
	}
	l, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q bad length: %v", ErrBadPrefix, s, err)
	}
	addr := s[:slash]
	if strings.ContainsRune(addr, ':') {
		hi, lo, err := refParseIPv6(addr)
		if err != nil {
			return Prefix{}, fmt.Errorf("%w: %q: %v", ErrBadPrefix, s, err)
		}
		return Make(IPv6, hi, lo, uint8(l))
	}
	v4, err := refParseIPv4(addr)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %q: %v", ErrBadPrefix, s, err)
	}
	return Make(IPv4, uint64(v4)<<32, 0, uint8(l))
}

func refParseIPv4(s string) (uint32, error) {
	var v uint32
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, errors.New("want 4 octets")
	}
	for _, part := range parts {
		n, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("bad octet %q", part)
		}
		if len(part) > 1 && part[0] == '0' {
			return 0, fmt.Errorf("leading zero in octet %q", part)
		}
		v = v<<8 | uint32(n)
	}
	return v, nil
}

func refParseIPv6(s string) (hi, lo uint64, err error) {
	// Split on "::" for zero compression.
	var head, tail []uint16
	dc := strings.Index(s, "::")
	parse16 := func(fields string) ([]uint16, error) {
		if fields == "" {
			return nil, nil
		}
		var out []uint16
		for _, f := range strings.Split(fields, ":") {
			if f == "" {
				return nil, errors.New("empty group")
			}
			n, err := strconv.ParseUint(f, 16, 16)
			if err != nil {
				return nil, fmt.Errorf("bad group %q", f)
			}
			out = append(out, uint16(n))
		}
		return out, nil
	}
	if dc >= 0 {
		if strings.Contains(s[dc+2:], "::") {
			return 0, 0, errors.New("multiple ::")
		}
		if head, err = parse16(s[:dc]); err != nil {
			return 0, 0, err
		}
		if tail, err = parse16(s[dc+2:]); err != nil {
			return 0, 0, err
		}
		if len(head)+len(tail) > 7 {
			return 0, 0, errors.New("too many groups around ::")
		}
	} else {
		if head, err = parse16(s); err != nil {
			return 0, 0, err
		}
		if len(head) != 8 {
			return 0, 0, errors.New("want 8 groups")
		}
	}
	var groups [8]uint16
	copy(groups[:], head)
	copy(groups[8-len(tail):], tail)
	for i := 0; i < 4; i++ {
		hi = hi<<16 | uint64(groups[i])
	}
	for i := 4; i < 8; i++ {
		lo = lo<<16 | uint64(groups[i])
	}
	return hi, lo, nil
}
