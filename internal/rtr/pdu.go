// Package rtr implements the RPKI-to-Router protocol — RFC 6810 (version 0)
// and RFC 8210 (version 1) — the channel of Figure 1 through which an RPKI
// local cache pushes its validated (prefix, maxLength, origin AS) PDUs to
// routers. The package provides the binary PDU codec, a cache server with
// serial-numbered incremental updates, and a router-side client that
// maintains the validated prefix table routers feed into origin validation.
//
// Every PDU starts with a common 8-byte header:
//
//	0          8          16         24        31
//	+----------+----------+----------+----------+
//	| version  | PDU type |  session id / zero  |
//	+----------+----------+----------+----------+
//	|                 length                    |
//	+-------------------------------------------+
//
// followed by a type-specific body. All integers are big-endian.
package rtr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// Protocol versions.
const (
	Version0 byte = 0 // RFC 6810
	Version1 byte = 1 // RFC 8210
)

// PDU type codes.
const (
	TypeSerialNotify  byte = 0
	TypeSerialQuery   byte = 1
	TypeResetQuery    byte = 2
	TypeCacheResponse byte = 3
	TypeIPv4Prefix    byte = 4
	TypeIPv6Prefix    byte = 6
	TypeEndOfData     byte = 7
	TypeCacheReset    byte = 8
	TypeRouterKey     byte = 9 // version 1 only
	TypeErrorReport   byte = 10
)

// Error Report codes (RFC 6810 §10, RFC 8210 §12).
const (
	ErrCorruptData           uint16 = 0
	ErrInternalError         uint16 = 1
	ErrNoDataAvailable       uint16 = 2
	ErrInvalidRequest        uint16 = 3
	ErrUnsupportedVersion    uint16 = 4
	ErrUnsupportedPDUType    uint16 = 5
	ErrWithdrawalOfUnknown   uint16 = 6
	ErrDuplicateAnnouncement uint16 = 7
)

// Prefix PDU flags.
const (
	FlagWithdraw byte = 0 // bit 0 clear: withdraw
	FlagAnnounce byte = 1 // bit 0 set: announce
)

// MaxPDUSize bounds accepted PDUs; Error Report text is truncated to fit.
const MaxPDUSize = 1 << 16

const headerLen = 8

// PDU is one protocol data unit.
type PDU interface {
	// Type returns the PDU type code.
	Type() byte
}

// SerialNotify tells routers new data is available at Serial.
type SerialNotify struct {
	SessionID uint16
	Serial    Serial
}

// SerialQuery asks the cache for changes since Serial.
type SerialQuery struct {
	SessionID uint16
	Serial    Serial
}

// ResetQuery asks the cache for the complete data set.
type ResetQuery struct{}

// CacheResponse opens a sequence of prefix PDUs.
type CacheResponse struct {
	SessionID uint16
}

// Prefix announces or withdraws one VRP. It serializes as an IPv4 Prefix or
// IPv6 Prefix PDU depending on the VRP's family.
type Prefix struct {
	Flags byte
	VRP   rpki.VRP
}

// EndOfData closes an update sequence. The Refresh/Retry/Expire timers exist
// only in version 1 and are ignored when marshalling version 0.
type EndOfData struct {
	SessionID uint16
	Serial    Serial
	Refresh   uint32
	Retry     uint32
	Expire    uint32
}

// CacheReset tells the router its serial is unusable: fall back to a Reset
// Query.
type CacheReset struct{}

// RouterKey is the version-1 BGPsec router key PDU. The repository does not
// evaluate BGPsec (the paper's setting is "RPKI deployed, BGPsec not"), so
// the fields are carried opaquely for protocol completeness.
type RouterKey struct {
	Flags byte
	SKI   [20]byte
	AS    rpki.ASN
	SPKI  []byte
}

// ErrorReport carries an error code, the PDU that caused it, and diagnostic
// text.
type ErrorReport struct {
	Code       uint16
	CausingPDU []byte
	Text       string
}

// Error implements the error interface so an ErrorReport can be returned
// directly from client calls.
func (e *ErrorReport) Error() string {
	return fmt.Sprintf("rtr: error report code %d: %s", e.Code, e.Text)
}

func (*SerialNotify) Type() byte  { return TypeSerialNotify }
func (*SerialQuery) Type() byte   { return TypeSerialQuery }
func (*ResetQuery) Type() byte    { return TypeResetQuery }
func (*CacheResponse) Type() byte { return TypeCacheResponse }
func (p *Prefix) Type() byte {
	if p.VRP.Prefix.Family() == prefix.IPv6 {
		return TypeIPv6Prefix
	}
	return TypeIPv4Prefix
}
func (*EndOfData) Type() byte   { return TypeEndOfData }
func (*CacheReset) Type() byte  { return TypeCacheReset }
func (*RouterKey) Type() byte   { return TypeRouterKey }
func (*ErrorReport) Type() byte { return TypeErrorReport }

// errUnknownPDU is a fixed value: an error formatted from p would make every
// PDU appendPDU encodes escape to the heap.
var errUnknownPDU = errors.New("rtr: no encoding for this PDU type")

// appendPDU appends p's wire encoding for the given protocol version to buf
// and returns the extended slice: the package's one encoder. Into spare
// capacity it allocates nothing, and it keeps p from escaping, so the cache
// answers a query without an allocation of its own (TestSerialAnswerAllocs).
func appendPDU(buf []byte, version byte, p PDU) ([]byte, error) {
	switch p := p.(type) {
	case *Prefix:
		return appendPrefix(buf, version, p), nil
	case *SerialNotify:
		buf = appendHeader(buf, version, TypeSerialNotify, p.SessionID, 12)
		return binary.BigEndian.AppendUint32(buf, uint32(p.Serial)), nil
	case *SerialQuery:
		buf = appendHeader(buf, version, TypeSerialQuery, p.SessionID, 12)
		return binary.BigEndian.AppendUint32(buf, uint32(p.Serial)), nil
	case *ResetQuery:
		return appendHeader(buf, version, TypeResetQuery, 0, 8), nil
	case *CacheResponse:
		return appendHeader(buf, version, TypeCacheResponse, p.SessionID, 8), nil
	case *EndOfData:
		if version == Version0 {
			buf = appendHeader(buf, version, TypeEndOfData, p.SessionID, 12)
			return binary.BigEndian.AppendUint32(buf, uint32(p.Serial)), nil
		}
		buf = appendHeader(buf, version, TypeEndOfData, p.SessionID, 24)
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Serial))
		buf = binary.BigEndian.AppendUint32(buf, p.Refresh)
		buf = binary.BigEndian.AppendUint32(buf, p.Retry)
		return binary.BigEndian.AppendUint32(buf, p.Expire), nil
	case *CacheReset:
		return appendHeader(buf, version, TypeCacheReset, 0, 8), nil
	case *RouterKey:
		if version == Version0 {
			return buf, errors.New("rtr: Router Key PDU requires version 1")
		}
		buf = appendHeader(buf, version, TypeRouterKey, uint16(p.Flags)<<8, uint32(headerLen+20+4+len(p.SPKI)))
		buf = append(buf, p.SKI[:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.AS))
		return append(buf, p.SPKI...), nil
	case *ErrorReport:
		// Both variable fields are truncated so the whole PDU fits MaxPDUSize.
		const fieldCap = (MaxPDUSize - headerLen - 8) / 2
		causing, text := p.CausingPDU, p.Text
		if len(causing) > fieldCap {
			causing = causing[:fieldCap]
		}
		if len(text) > fieldCap {
			text = text[:fieldCap]
		}
		buf = appendHeader(buf, version, TypeErrorReport, p.Code, uint32(headerLen+4+len(causing)+4+len(text)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(causing)))
		buf = append(buf, causing...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(text)))
		return append(buf, text...), nil
	}
	return buf, errUnknownPDU
}

// appendHeader appends the common 8-byte header.
func appendHeader(buf []byte, version, pduType byte, sessionOrZero uint16, length uint32) []byte {
	buf = append(buf, version, pduType)
	buf = binary.BigEndian.AppendUint16(buf, sessionOrZero)
	return binary.BigEndian.AppendUint32(buf, length)
}

// appendPrefix appends an IPv4 or IPv6 Prefix PDU. It is appendPDU's case for
// *Prefix, and the cache's per-VRP loops call it directly, past the type
// switch: a full response encodes tens of thousands of them.
func appendPrefix(buf []byte, version byte, p *Prefix) []byte {
	v := p.VRP
	hi, lo := v.Prefix.Bits()
	if v.Prefix.Family() == prefix.IPv4 {
		buf = appendHeader(buf, version, TypeIPv4Prefix, 0, 20)
		buf = append(buf, p.Flags, v.Prefix.Len(), v.MaxLength, 0)
		buf = binary.BigEndian.AppendUint32(buf, uint32(hi>>32))
	} else {
		buf = appendHeader(buf, version, TypeIPv6Prefix, 0, 32)
		buf = append(buf, p.Flags, v.Prefix.Len(), v.MaxLength, 0)
		buf = binary.BigEndian.AppendUint64(buf, hi)
		buf = binary.BigEndian.AppendUint64(buf, lo)
	}
	return binary.BigEndian.AppendUint32(buf, uint32(v.AS))
}

// WritePDU serializes one PDU for the given protocol version in one Write.
// Every fixed-size PDU fits the 32-byte array it encodes into, which escapes
// through w: an allocation a call. The cache's writer, which sends tens of
// thousands of PDUs a response, appends into its connection's buffer instead.
func WritePDU(w io.Writer, version byte, p PDU) error {
	if version != Version0 && version != Version1 {
		return fmt.Errorf("rtr: unknown protocol version %d", version)
	}
	var b [headerLen + maxFixedBody]byte
	buf, err := appendPDU(b[:0], version, p)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ProtocolError describes a malformed or unexpected PDU and maps onto an
// Error Report code.
type ProtocolError struct {
	Code uint16
	Msg  string
}

func (e *ProtocolError) Error() string { return "rtr: " + e.Msg }

func protoErr(code uint16, format string, args ...interface{}) error {
	return &ProtocolError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// maxFixedBody is the longest body among the fixed-size PDUs (IPv6 Prefix:
// 24 bytes). Only Router Key and Error Report bodies vary in length.
const maxFixedBody = 24

// ReadPDU reads and parses one PDU. It returns the PDU, its version byte,
// and an error. Malformed input yields a *ProtocolError whose Code is
// suitable for an Error Report.
//
// It consumes exactly the PDU's bytes from r, so a caller that wants fewer,
// larger reads from a socket hands it a bufio.Reader it owns.
func ReadPDU(r io.Reader) (PDU, byte, error) {
	// Header and fixed-size body share one scratch array, so framing a PDU
	// costs no allocation of its own per part — a table-sized response is
	// tens of thousands of 12- and 24-byte bodies. (The array escapes through
	// r, which is why it is one array and not two.)
	var buf [headerLen + maxFixedBody]byte
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, err
	}
	version := hdr[0]
	pduType := hdr[1]
	sess := binary.BigEndian.Uint16(hdr[2:])
	length := binary.BigEndian.Uint32(hdr[4:])
	if version != Version0 && version != Version1 {
		return nil, version, protoErr(ErrUnsupportedVersion, "unsupported version %d", version)
	}
	if length < headerLen || length > MaxPDUSize {
		return nil, version, protoErr(ErrCorruptData, "bad PDU length %d", length)
	}
	var body []byte
	if n := int(length) - headerLen; n <= maxFixedBody {
		body = buf[headerLen : headerLen+n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, version, err
	}
	need := func(n int) error {
		if len(body) != n {
			return protoErr(ErrCorruptData, "type %d PDU body length %d, want %d", pduType, len(body), n)
		}
		return nil
	}
	switch pduType {
	case TypeSerialNotify:
		if err := need(4); err != nil {
			return nil, version, err
		}
		return &SerialNotify{SessionID: sess, Serial: Serial(binary.BigEndian.Uint32(body))}, version, nil
	case TypeSerialQuery:
		if err := need(4); err != nil {
			return nil, version, err
		}
		return &SerialQuery{SessionID: sess, Serial: Serial(binary.BigEndian.Uint32(body))}, version, nil
	case TypeResetQuery:
		if err := need(0); err != nil {
			return nil, version, err
		}
		return &ResetQuery{}, version, nil
	case TypeCacheResponse:
		if err := need(0); err != nil {
			return nil, version, err
		}
		return &CacheResponse{SessionID: sess}, version, nil
	case TypeIPv4Prefix, TypeIPv6Prefix:
		fam, n := prefixBody(pduType)
		if err := need(n); err != nil {
			return nil, version, err
		}
		p := new(Prefix)
		if err := p.parseBody(body, fam); err != nil {
			return nil, version, err
		}
		return p, version, nil
	case TypeEndOfData:
		if version == Version0 {
			if err := need(4); err != nil {
				return nil, version, err
			}
			return &EndOfData{SessionID: sess, Serial: Serial(binary.BigEndian.Uint32(body))}, version, nil
		}
		if err := need(16); err != nil {
			return nil, version, err
		}
		return &EndOfData{
			SessionID: sess,
			Serial:    Serial(binary.BigEndian.Uint32(body)),
			Refresh:   binary.BigEndian.Uint32(body[4:]),
			Retry:     binary.BigEndian.Uint32(body[8:]),
			Expire:    binary.BigEndian.Uint32(body[12:]),
		}, version, nil
	case TypeCacheReset:
		if err := need(0); err != nil {
			return nil, version, err
		}
		return &CacheReset{}, version, nil
	case TypeRouterKey:
		if version == Version0 {
			return nil, version, protoErr(ErrUnsupportedPDUType, "Router Key PDU in version 0")
		}
		if len(body) < 24 {
			return nil, version, protoErr(ErrCorruptData, "short Router Key PDU")
		}
		rk := &RouterKey{Flags: byte(sess >> 8), AS: rpki.ASN(binary.BigEndian.Uint32(body[20:24]))}
		copy(rk.SKI[:], body[:20])
		rk.SPKI = append([]byte(nil), body[24:]...)
		return rk, version, nil
	case TypeErrorReport:
		return parseErrorReport(body, sess, version)
	default:
		return nil, version, protoErr(ErrUnsupportedPDUType, "unknown PDU type %d", pduType)
	}
}

// prefixBody returns the address family and the body length of the Prefix
// PDU type t (TypeIPv4Prefix or TypeIPv6Prefix).
func prefixBody(t byte) (prefix.Family, int) {
	if t == TypeIPv4Prefix {
		return prefix.IPv4, 12
	}
	return prefix.IPv6, 24
}

// parseBody sets p from a Prefix PDU's body (prefixBody's length): the one
// parser of it, ReadPDU's and the client's in-buffer decode's (readBuffered).
func (p *Prefix) parseBody(body []byte, fam prefix.Family) error {
	flags, plen, maxLen := body[0], body[1], body[2]
	var hi, lo uint64
	var as rpki.ASN
	if fam == prefix.IPv4 {
		hi = uint64(binary.BigEndian.Uint32(body[4:])) << 32
		as = rpki.ASN(binary.BigEndian.Uint32(body[8:]))
	} else {
		hi = binary.BigEndian.Uint64(body[4:])
		lo = binary.BigEndian.Uint64(body[12:])
		as = rpki.ASN(binary.BigEndian.Uint32(body[20:]))
	}
	pfx, err := prefix.Make(fam, hi, lo, plen)
	if err != nil {
		return protoErr(ErrCorruptData, "bad prefix in PDU: %v", err)
	}
	v := rpki.VRP{Prefix: pfx, MaxLength: maxLen, AS: as}
	if err := v.Validate(); err != nil {
		return protoErr(ErrCorruptData, "bad VRP in PDU: %v", err)
	}
	p.Flags, p.VRP = flags&FlagAnnounce, v
	return nil
}

func parseErrorReport(body []byte, code uint16, version byte) (PDU, byte, error) {
	if len(body) < 8 {
		return nil, version, protoErr(ErrCorruptData, "short Error Report")
	}
	cl := binary.BigEndian.Uint32(body)
	if uint64(cl)+8 > uint64(len(body)) { // widened first: 4+cl+4 wraps in uint32
		return nil, version, protoErr(ErrCorruptData, "Error Report causing-PDU length overflow")
	}
	causing := append([]byte(nil), body[4:4+cl]...)
	rest := body[4+cl:]
	tl := binary.BigEndian.Uint32(rest)
	if uint64(tl)+4 > uint64(len(rest)) {
		return nil, version, protoErr(ErrCorruptData, "Error Report text length overflow")
	}
	return &ErrorReport{Code: code, CausingPDU: causing, Text: string(rest[4 : 4+tl])}, version, nil
}
