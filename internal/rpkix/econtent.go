// Package rpkix implements the cryptographic envelope of the RPKI objects
// the paper's pipeline consumes: the RFC 6482 RouteOriginAttestation
// eContent in DER, a CMS SignedData profile shaped after RFC 6488, an X.509
// chain (trust anchor → CA → per-ROA EE certificate) carrying RFC 3779 IP
// resource extensions, and an on-disk repository with a ScanROAs entry point
// — the drop-in role of the scan_roas utility in §7.1: cryptographically
// validate ROA objects and emit (prefix, maxLength, origin AS) tuples.
//
// WriteRepository also publishes an RFC 6486-shaped manifest and a CRL,
// which ScanROAs verifies when present. The profile departs from a
// production RPKI only in ECDSA P-256 for RSA-2048 and in CMS signatures
// over the eContent (no signedAttrs); neither affects what the paper
// measures — the validation pipeline (parse, verify signature, chain and
// resource containment, extract VRPs) is the real one.
package rpkix

import (
	"encoding/asn1"
	"fmt"
	"math"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// OIDs used by the profile.
var (
	oidRouteOriginAttestation = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 9, 16, 1, 24} // id-ct-routeOriginAuthz
	oidSignedData             = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 7, 2}
	oidSHA256                 = asn1.ObjectIdentifier{2, 16, 840, 1, 101, 3, 4, 2, 1}
	oidECDSAWithSHA256        = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 2}
	oidIPAddrBlocks           = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 1, 7} // id-pe-ipAddrBlocks
)

// Address family identifiers used in ROA eContent and RFC 3779 extensions.
var (
	afiIPv4 = []byte{0x00, 0x01}
	afiIPv6 = []byte{0x00, 0x02}
)

// roaASN1 mirrors RouteOriginAttestation (RFC 6482 §3).
type roaASN1 struct {
	Version      int `asn1:"optional,explicit,default:0,tag:0"`
	ASID         int64
	IPAddrBlocks []roaIPAddressFamily
}

type roaIPAddressFamily struct {
	AddressFamily []byte
	Addresses     []roaIPAddress
}

type roaIPAddress struct {
	Address   asn1.BitString
	MaxLength int64 `asn1:"optional,default:-1"`
}

// prefixToBitString encodes a prefix as the RFC 3779 BIT STRING form:
// the network bits, most significant first, BitLength = prefix length.
func prefixToBitString(p prefix.Prefix) asn1.BitString {
	hi, lo := p.Bits()
	nbytes := (int(p.Len()) + 7) / 8
	buf := make([]byte, nbytes)
	for i := 0; i < nbytes && i < 8; i++ {
		buf[i] = byte(hi >> (56 - 8*i))
	}
	for i := 8; i < nbytes; i++ {
		buf[i] = byte(lo >> (56 - 8*(i-8)))
	}
	return asn1.BitString{Bytes: buf, BitLength: int(p.Len())}
}

// bitStringToPrefix decodes the RFC 3779 BIT STRING form.
func bitStringToPrefix(fam prefix.Family, bs asn1.BitString) (prefix.Prefix, error) {
	if bs.BitLength < 0 || bs.BitLength > int(fam.MaxLen()) {
		return prefix.Prefix{}, fmt.Errorf("rpkix: bit length %d out of range for %v", bs.BitLength, fam)
	}
	if want := (bs.BitLength + 7) / 8; len(bs.Bytes) != want {
		return prefix.Prefix{}, fmt.Errorf("rpkix: bit string has %d bytes, want %d", len(bs.Bytes), want)
	}
	var hi, lo uint64
	for i, b := range bs.Bytes {
		if i < 8 {
			hi |= uint64(b) << (56 - 8*i)
		} else if i < 16 {
			lo |= uint64(b) << (56 - 8*(i-8))
		}
	}
	return prefix.Make(fam, hi, lo, uint8(bs.BitLength))
}

// EncodeROAContent serializes a ROA to its RFC 6482 eContent DER. Entries
// whose maxLength equals the prefix length omit the optional maxLength
// field, as the RFC recommends.
func EncodeROAContent(r rpki.ROA) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if uint32(r.AS) > math.MaxUint32 {
		return nil, fmt.Errorf("rpkix: ASN out of range")
	}
	var v4, v6 []roaIPAddress
	for _, rp := range r.Prefixes {
		addr := roaIPAddress{Address: prefixToBitString(rp.Prefix), MaxLength: -1}
		if rp.UsesMaxLength() {
			addr.MaxLength = int64(rp.MaxLength)
		}
		if rp.Prefix.Family() == prefix.IPv4 {
			v4 = append(v4, addr)
		} else {
			v6 = append(v6, addr)
		}
	}
	var blocks []roaIPAddressFamily
	if len(v4) > 0 {
		blocks = append(blocks, roaIPAddressFamily{AddressFamily: afiIPv4, Addresses: v4})
	}
	if len(v6) > 0 {
		blocks = append(blocks, roaIPAddressFamily{AddressFamily: afiIPv6, Addresses: v6})
	}
	return asn1.Marshal(roaASN1{ASID: int64(uint32(r.AS)), IPAddrBlocks: blocks})
}

// DecodeROAContent parses RFC 6482 eContent DER into a ROA. Address-family
// blocks are accepted in any order and number; the returned prefixes are in
// EncodeROAContent's order — IPv4 then IPv6, each in encounter order — so a
// decoded ROA survives a re-encode unchanged.
func DecodeROAContent(der []byte) (rpki.ROA, error) {
	var raw roaASN1
	rest, err := asn1.Unmarshal(der, &raw)
	if err != nil {
		return rpki.ROA{}, fmt.Errorf("rpkix: parsing ROA eContent: %w", err)
	}
	if len(rest) != 0 {
		return rpki.ROA{}, fmt.Errorf("rpkix: %d trailing bytes after ROA eContent", len(rest))
	}
	if raw.Version != 0 {
		return rpki.ROA{}, fmt.Errorf("rpkix: unsupported ROA version %d", raw.Version)
	}
	if raw.ASID < 0 || raw.ASID > math.MaxUint32 {
		return rpki.ROA{}, fmt.Errorf("rpkix: ASID %d out of range", raw.ASID)
	}
	out := rpki.ROA{AS: rpki.ASN(raw.ASID)}
	var v6 []rpki.ROAPrefix
	for _, blk := range raw.IPAddrBlocks {
		var fam prefix.Family
		switch {
		case string(blk.AddressFamily) == string(afiIPv4):
			fam = prefix.IPv4
		case string(blk.AddressFamily) == string(afiIPv6):
			fam = prefix.IPv6
		default:
			return rpki.ROA{}, fmt.Errorf("rpkix: unknown address family %x", blk.AddressFamily)
		}
		for _, a := range blk.Addresses {
			p, err := bitStringToPrefix(fam, a.Address)
			if err != nil {
				return rpki.ROA{}, err
			}
			ml := p.Len()
			if a.MaxLength >= 0 {
				if a.MaxLength > int64(fam.MaxLen()) {
					return rpki.ROA{}, fmt.Errorf("rpkix: maxLength %d out of range", a.MaxLength)
				}
				ml = uint8(a.MaxLength)
			}
			if fam == prefix.IPv4 {
				out.Prefixes = append(out.Prefixes, rpki.ROAPrefix{Prefix: p, MaxLength: ml})
			} else {
				v6 = append(v6, rpki.ROAPrefix{Prefix: p, MaxLength: ml})
			}
		}
	}
	out.Prefixes = append(out.Prefixes, v6...)
	if err := out.Validate(); err != nil {
		return rpki.ROA{}, err
	}
	return out, nil
}
