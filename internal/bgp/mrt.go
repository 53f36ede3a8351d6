package bgp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// MRT TABLE_DUMP_V2 (RFC 6396) — the binary format RouteViews publishes its
// RIB snapshots in (§6's dataset: "the BGP tables of all Route Views
// collectors"). This file implements the subset a route-origin study needs:
// the PEER_INDEX_TABLE and the RIB_IPV4_UNICAST / RIB_IPV6_UNICAST entry
// types, with ORIGIN and (4-byte) AS_PATH attributes.
//
// Every MRT record starts with a common header:
//
//	timestamp(4) type(2) subtype(2) length(4)
//
// followed by `length` bytes of message.

// MRT type and subtype codes (RFC 6396 §4).
const (
	mrtTypeTableDumpV2 uint16 = 13

	mrtPeerIndexTable uint16 = 1
	mrtRIBIPv4Unicast uint16 = 2
	mrtRIBIPv6Unicast uint16 = 4
)

// BGP path attribute codes used in RIB entries.
const (
	attrOrigin byte = 1
	attrASPath byte = 2

	asPathSet      byte = 1
	asPathSequence byte = 2
)

// MRTWriter streams a TABLE_DUMP_V2 RIB dump: one PEER_INDEX_TABLE record
// followed by one RIB record per announcement.
type MRTWriter struct {
	w         *bufio.Writer
	seq       uint32
	timestamp uint32
	started   bool
}

// NewMRTWriter creates a writer stamping records with the given UNIX time.
func NewMRTWriter(w io.Writer, timestamp uint32) *MRTWriter {
	return &MRTWriter{w: bufio.NewWriter(w), timestamp: timestamp}
}

func (m *MRTWriter) record(typ, subtype uint16, body []byte) error {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], m.timestamp)
	binary.BigEndian.PutUint16(hdr[4:], typ)
	binary.BigEndian.PutUint16(hdr[6:], subtype)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	if _, err := m.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := m.w.Write(body)
	return err
}

// writePeerIndex emits the mandatory leading PEER_INDEX_TABLE with a single
// synthetic IPv4 peer (AS 0 placeholder — RIB entries carry the real path).
func (m *MRTWriter) writePeerIndex() error {
	name := []byte("repro-collector")
	body := make([]byte, 0, 32+len(name))
	body = append(body, 0x0a, 0x00, 0x00, 0x01) // collector BGP ID 10.0.0.1
	body = binary.BigEndian.AppendUint16(body, uint16(len(name)))
	body = append(body, name...)
	body = binary.BigEndian.AppendUint16(body, 1) // peer count
	body = append(body, 0x02)                     // peer type: IPv4 addr, 4-byte AS
	body = append(body, 0x0a, 0x00, 0x00, 0x02)   // peer BGP ID
	body = append(body, 0x0a, 0x00, 0x00, 0x02)   // peer IPv4 address
	body = append(body, 0x00, 0x00, 0x00, 0x00)   // peer AS 0
	return m.record(mrtTypeTableDumpV2, mrtPeerIndexTable, body)
}

// WriteAnnouncement appends one RIB entry record.
func (m *MRTWriter) WriteAnnouncement(a Announcement) error {
	if !m.started {
		if err := m.writePeerIndex(); err != nil {
			return err
		}
		m.started = true
	}
	if len(a.Path) == 0 {
		return fmt.Errorf("bgp: MRT announcement for %s has an empty path", a.Prefix)
	}
	if len(a.Path) > 63 {
		// 2+4*len must fit the 1-byte attribute length we emit.
		return fmt.Errorf("bgp: MRT path with %d hops exceeds the writer's 63-hop limit", len(a.Path))
	}
	subtype := mrtRIBIPv4Unicast
	if a.Prefix.Family() == prefix.IPv6 {
		subtype = mrtRIBIPv6Unicast
	}
	// Attributes: ORIGIN (IGP) + AS_PATH (one AS_SEQUENCE segment, 4-byte ASNs).
	attrs := []byte{
		0x40, attrOrigin, 1, 0, // well-known transitive, len 1, IGP
	}
	pathLen := byte(len(a.Path))
	attrs = append(attrs, 0x40, attrASPath, byte(2+4*len(a.Path)), asPathSequence, pathLen)
	for _, as := range a.Path {
		attrs = binary.BigEndian.AppendUint32(attrs, uint32(as))
	}

	body := make([]byte, 0, 32+len(attrs))
	body = binary.BigEndian.AppendUint32(body, m.seq)
	m.seq++
	body = append(body, a.Prefix.Len())
	body = append(body, prefixBytes(a.Prefix)...)
	body = binary.BigEndian.AppendUint16(body, 1) // entry count
	body = binary.BigEndian.AppendUint16(body, 0) // peer index
	body = binary.BigEndian.AppendUint32(body, m.timestamp)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	return m.record(mrtTypeTableDumpV2, subtype, body)
}

// Flush flushes buffered records. An empty dump still emits the peer index.
func (m *MRTWriter) Flush() error {
	if !m.started {
		if err := m.writePeerIndex(); err != nil {
			return err
		}
		m.started = true
	}
	return m.w.Flush()
}

// prefixBytes returns the RFC 4271 NLRI encoding of the network bits
// (ceil(len/8) bytes).
func prefixBytes(p prefix.Prefix) []byte {
	hi, lo := p.Bits()
	n := (int(p.Len()) + 7) / 8
	out := make([]byte, n)
	for i := 0; i < n && i < 8; i++ {
		out[i] = byte(hi >> (56 - 8*i))
	}
	for i := 8; i < n; i++ {
		out[i] = byte(lo >> (56 - 8*(i-8)))
	}
	return out
}

// ReadMRT parses a TABLE_DUMP_V2 dump into announcements. Records other
// than RIB_IPV4_UNICAST / RIB_IPV6_UNICAST (including the peer index) are
// skipped; AS_SET-terminated paths are dropped, matching ReadDump's policy.
func ReadMRT(r io.Reader) ([]Announcement, error) {
	br := bufio.NewReader(r)
	var out []Announcement
	for recno := 0; ; recno++ {
		var hdr [12]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("bgp: MRT record %d header: %w", recno, err)
		}
		typ := binary.BigEndian.Uint16(hdr[4:])
		subtype := binary.BigEndian.Uint16(hdr[6:])
		length := binary.BigEndian.Uint32(hdr[8:])
		if length > 1<<24 {
			return nil, fmt.Errorf("bgp: MRT record %d implausibly long (%d bytes)", recno, length)
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("bgp: MRT record %d body: %w", recno, err)
		}
		if typ != mrtTypeTableDumpV2 {
			continue
		}
		var fam prefix.Family
		switch subtype {
		case mrtRIBIPv4Unicast:
			fam = prefix.IPv4
		case mrtRIBIPv6Unicast:
			fam = prefix.IPv6
		default:
			continue
		}
		anns, err := parseRIBEntry(body, fam)
		if err != nil {
			return nil, fmt.Errorf("bgp: MRT record %d: %w", recno, err)
		}
		out = append(out, anns...)
	}
}

// parseRIBEntry decodes one RIB_IPVx_UNICAST record into announcements (one
// per RIB entry with a usable AS_PATH).
func parseRIBEntry(body []byte, fam prefix.Family) ([]Announcement, error) {
	cur := body
	take := func(n int) ([]byte, error) {
		if len(cur) < n {
			return nil, fmt.Errorf("truncated RIB entry (want %d bytes, have %d)", n, len(cur))
		}
		out := cur[:n]
		cur = cur[n:]
		return out, nil
	}
	if _, err := take(4); err != nil { // sequence number
		return nil, err
	}
	lb, err := take(1)
	if err != nil {
		return nil, err
	}
	plen := lb[0]
	if plen > fam.MaxLen() {
		return nil, fmt.Errorf("prefix length %d exceeds %v maximum", plen, fam)
	}
	pb, err := take(int(plen+7) / 8)
	if err != nil {
		return nil, err
	}
	p, err := prefixFromBytes(fam, pb, plen)
	if err != nil {
		return nil, err
	}
	cb, err := take(2)
	if err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint16(cb)
	var out []Announcement
	for e := uint16(0); e < count; e++ {
		if _, err := take(2 + 4); err != nil { // peer index + originated time
			return nil, err
		}
		alb, err := take(2)
		if err != nil {
			return nil, err
		}
		attrs, err := take(int(binary.BigEndian.Uint16(alb)))
		if err != nil {
			return nil, err
		}
		path, err := parseASPath(attrs)
		if err != nil {
			return nil, err
		}
		if path != nil {
			out = append(out, Announcement{Prefix: p, Path: path})
		}
	}
	return out, nil
}

// parseASPath walks the BGP attribute block and decodes the AS_PATH
// attribute (4-byte ASNs per RFC 6396 §4.3.4). It returns nil (no error)
// when the path is absent or ends in an AS_SET.
func parseASPath(attrs []byte) ([]rpki.ASN, error) {
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, fmt.Errorf("truncated attribute header")
		}
		flags, typ := attrs[0], attrs[1]
		var alen int
		var off int
		if flags&0x10 != 0 { // extended length
			if len(attrs) < 4 {
				return nil, fmt.Errorf("truncated extended attribute")
			}
			alen = int(binary.BigEndian.Uint16(attrs[2:4]))
			off = 4
		} else {
			alen = int(attrs[2])
			off = 3
		}
		if len(attrs) < off+alen {
			return nil, fmt.Errorf("attribute %d overruns block", typ)
		}
		val := attrs[off : off+alen]
		attrs = attrs[off+alen:]
		if typ != attrASPath {
			continue
		}
		return parseASPathSegments(val)
	}
	return nil, nil
}

// parseASPathSegments decodes raw AS_PATH segment bytes (4-byte ASNs). It
// returns nil (no error) for AS_SET-bearing or empty paths.
func parseASPathSegments(val []byte) ([]rpki.ASN, error) {
	var path []rpki.ASN
	for len(val) > 0 {
		if len(val) < 2 {
			return nil, fmt.Errorf("truncated AS_PATH segment")
		}
		segType, n := val[0], int(val[1])
		if len(val) < 2+4*n {
			return nil, fmt.Errorf("truncated AS_PATH segment body")
		}
		if segType == asPathSet {
			return nil, nil // AS_SET origin: unusable for ROV, drop
		}
		if segType != asPathSequence {
			return nil, fmt.Errorf("unknown AS_PATH segment type %d", segType)
		}
		for i := 0; i < n; i++ {
			path = append(path, rpki.ASN(binary.BigEndian.Uint32(val[2+4*i:])))
		}
		val = val[2+4*n:]
	}
	if len(path) == 0 {
		return nil, nil
	}
	return path, nil
}

func prefixFromBytes(fam prefix.Family, b []byte, plen uint8) (prefix.Prefix, error) {
	var hi, lo uint64
	for i, by := range b {
		if i < 8 {
			hi |= uint64(by) << (56 - 8*i)
		} else if i < 16 {
			lo |= uint64(by) << (56 - 8*(i-8))
		}
	}
	return prefix.Make(fam, hi, lo, plen)
}
