package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// BGP-4 wire format (RFC 4271) with 4-octet AS numbers (RFC 6793) and
// multiprotocol IPv6 NLRI (RFC 4760). This is the message layer the paper's
// announcements — legitimate, de-aggregated, and hijacked alike — travel
// over; internal/bgpsim abstracts propagation policy, this file provides the
// concrete encoding and a Speaker for wire-level experiments.
//
// Every message starts with the RFC 4271 header: a 16-byte all-ones marker,
// a 2-byte length (including the header), and a 1-byte type.

// Message types.
const (
	MsgOpen         byte = 1
	MsgUpdate       byte = 2
	MsgNotification byte = 3
	MsgKeepalive    byte = 4
)

// Attribute type codes (beyond the MRT ones).
const (
	attrNextHop     byte = 3
	attrMPReachNLRI byte = 14
)

// Capability codes used in OPEN.
const (
	capMultiprotocol byte = 1
	capFourOctetAS   byte = 65
)

const (
	markerLen     = 16
	msgHeaderLen  = markerLen + 3
	maxMessageLen = 4096 // RFC 4271 §4
	asTrans       = 23456
)

// Open is a BGP OPEN message (always advertising 4-octet-AS and IPv6
// multiprotocol capabilities).
type Open struct {
	AS       rpki.ASN
	HoldTime uint16
	BGPID    uint32
}

// Update is a BGP UPDATE: withdrawn prefixes plus announced NLRI sharing one
// attribute set. IPv4 NLRI ride in the classic fields; IPv6 NLRI are carried
// in MP_REACH_NLRI.
type Update struct {
	Withdrawn []prefix.Prefix
	Path      []rpki.ASN // AS_PATH, one AS_SEQUENCE; empty = no announcements
	NextHop   uint32     // IPv4 next hop (the toy speaker does not forward)
	NLRI      []prefix.Prefix
}

// Notification is a BGP NOTIFICATION; sending one closes the session.
type Notification struct {
	Code, Subcode byte
	Data          []byte
}

// Error implements error so a received NOTIFICATION can propagate directly.
func (n *Notification) Error() string {
	return fmt.Sprintf("bgp: notification %d/%d", n.Code, n.Subcode)
}

// Keepalive is the heartbeat message.
type Keepalive struct{}

// Message is any BGP message.
type Message interface{ msgType() byte }

func (*Open) msgType() byte         { return MsgOpen }
func (*Update) msgType() byte       { return MsgUpdate }
func (*Notification) msgType() byte { return MsgNotification }
func (*Keepalive) msgType() byte    { return MsgKeepalive }

// WriteMessage serializes one message.
func WriteMessage(w io.Writer, m Message) error {
	var body []byte
	var err error
	switch t := m.(type) {
	case *Open:
		body = marshalOpen(t)
	case *Update:
		body, err = marshalUpdate(t)
		if err != nil {
			return err
		}
	case *Notification:
		body = append([]byte{t.Code, t.Subcode}, t.Data...)
	case *Keepalive:
	default:
		return fmt.Errorf("bgp: unknown message %T", m)
	}
	total := msgHeaderLen + len(body)
	if total > maxMessageLen {
		return fmt.Errorf("bgp: message of %d bytes exceeds the 4096-byte limit", total)
	}
	hdr := make([]byte, msgHeaderLen)
	for i := 0; i < markerLen; i++ {
		hdr[i] = 0xff
	}
	binary.BigEndian.PutUint16(hdr[markerLen:], uint16(total))
	hdr[markerLen+2] = m.msgType()
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func marshalOpen(o *Open) []byte {
	two := uint16(asTrans)
	if uint32(o.AS) < 1<<16 {
		two = uint16(o.AS)
	}
	caps := []byte{
		capMultiprotocol, 4, 0, 2, 0, 1, // AFI 2 (IPv6), SAFI 1 (unicast)
		capFourOctetAS, 4, 0, 0, 0, 0,
	}
	binary.BigEndian.PutUint32(caps[8:], uint32(o.AS))
	opt := append([]byte{2, byte(len(caps))}, caps...) // param type 2 = capabilities
	body := make([]byte, 0, 10+len(opt))
	body = append(body, 4) // BGP version
	body = binary.BigEndian.AppendUint16(body, two)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	body = binary.BigEndian.AppendUint32(body, o.BGPID)
	body = append(body, byte(len(opt)))
	return append(body, opt...)
}

func marshalUpdate(u *Update) ([]byte, error) {
	var withdrawn, nlri4, nlri6 []byte
	for _, p := range u.Withdrawn {
		if p.Family() != prefix.IPv4 {
			return nil, fmt.Errorf("bgp: IPv6 withdrawal of %s needs MP_UNREACH (unsupported)", p)
		}
		withdrawn = appendNLRI(withdrawn, p)
	}
	for _, p := range u.NLRI {
		if p.Family() == prefix.IPv4 {
			nlri4 = appendNLRI(nlri4, p)
		} else {
			nlri6 = appendNLRI(nlri6, p)
		}
	}
	var attrs []byte
	if len(nlri4) > 0 || len(nlri6) > 0 {
		if len(u.Path) == 0 {
			return nil, errors.New("bgp: announcement without an AS path")
		}
		if len(u.Path) > 63 {
			return nil, fmt.Errorf("bgp: %d-hop path exceeds the writer's limit", len(u.Path))
		}
		attrs = append(attrs, 0x40, attrOrigin, 1, 0)
		attrs = append(attrs, 0x40, attrASPath, byte(2+4*len(u.Path)), asPathSequence, byte(len(u.Path)))
		for _, as := range u.Path {
			attrs = binary.BigEndian.AppendUint32(attrs, uint32(as))
		}
	}
	if len(nlri4) > 0 {
		attrs = append(attrs, 0x40, attrNextHop, 4)
		attrs = binary.BigEndian.AppendUint32(attrs, u.NextHop)
	}
	if len(nlri6) > 0 {
		// MP_REACH_NLRI: AFI(2) SAFI(1) nhlen(1) nexthop(16) reserved(1) NLRI.
		val := []byte{0, 2, 1, 16}
		val = append(val, make([]byte, 16)...) // zero next hop: toy speaker
		val = append(val, 0)
		val = append(val, nlri6...)
		if len(val) > 255 {
			attrs = append(attrs, 0x90, attrMPReachNLRI) // optional + extended length
			attrs = binary.BigEndian.AppendUint16(attrs, uint16(len(val)))
		} else {
			attrs = append(attrs, 0x80, attrMPReachNLRI, byte(len(val)))
		}
		attrs = append(attrs, val...)
	}
	body := binary.BigEndian.AppendUint16(nil, uint16(len(withdrawn)))
	body = append(body, withdrawn...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	return append(body, nlri4...), nil
}

func appendNLRI(b []byte, p prefix.Prefix) []byte {
	b = append(b, p.Len())
	return append(b, prefixBytes(p)...)
}

// ReadMessage reads and parses one message.
func ReadMessage(r io.Reader) (Message, error) {
	hdr := make([]byte, msgHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	for i := 0; i < markerLen; i++ {
		if hdr[i] != 0xff {
			return nil, errors.New("bgp: bad marker")
		}
	}
	total := int(binary.BigEndian.Uint16(hdr[markerLen:]))
	typ := hdr[markerLen+2]
	if total < msgHeaderLen || total > maxMessageLen {
		return nil, fmt.Errorf("bgp: bad message length %d", total)
	}
	body := make([]byte, total-msgHeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	switch typ {
	case MsgOpen:
		return parseOpen(body)
	case MsgUpdate:
		return parseUpdate(body)
	case MsgNotification:
		if len(body) < 2 {
			return nil, errors.New("bgp: short NOTIFICATION")
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, errors.New("bgp: KEEPALIVE with body")
		}
		return &Keepalive{}, nil
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", typ)
	}
}

func parseOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, errors.New("bgp: short OPEN")
	}
	if body[0] != 4 {
		return nil, fmt.Errorf("bgp: version %d, want 4", body[0])
	}
	o := &Open{
		AS:       rpki.ASN(binary.BigEndian.Uint16(body[1:3])),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    binary.BigEndian.Uint32(body[5:9]),
	}
	optLen := int(body[9])
	opt := body[10:]
	if len(opt) != optLen {
		return nil, errors.New("bgp: OPEN optional parameter length mismatch")
	}
	for len(opt) >= 2 {
		ptype, plen := opt[0], int(opt[1])
		if len(opt) < 2+plen {
			return nil, errors.New("bgp: truncated OPEN parameter")
		}
		val := opt[2 : 2+plen]
		opt = opt[2+plen:]
		if ptype != 2 {
			continue
		}
		for len(val) >= 2 {
			code, clen := val[0], int(val[1])
			if len(val) < 2+clen {
				return nil, errors.New("bgp: truncated capability")
			}
			if code == capFourOctetAS && clen == 4 {
				o.AS = rpki.ASN(binary.BigEndian.Uint32(val[2:6]))
			}
			val = val[2+clen:]
		}
	}
	return o, nil
}

func parseUpdate(body []byte) (*Update, error) {
	u := &Update{}
	if len(body) < 2 {
		return nil, errors.New("bgp: short UPDATE")
	}
	wlen := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+wlen+2 {
		return nil, errors.New("bgp: UPDATE withdrawn length overflow")
	}
	var err error
	if u.Withdrawn, err = parseNLRIList(body[2:2+wlen], prefix.IPv4); err != nil {
		return nil, err
	}
	rest := body[2+wlen:]
	alen := int(binary.BigEndian.Uint16(rest))
	if len(rest) < 2+alen {
		return nil, errors.New("bgp: UPDATE attribute length overflow")
	}
	attrs := rest[2 : 2+alen]
	if u.NLRI, err = parseNLRIList(rest[2+alen:], prefix.IPv4); err != nil {
		return nil, err
	}
	// Attribute walk: AS_PATH, NEXT_HOP, MP_REACH_NLRI.
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return nil, errors.New("bgp: truncated attribute")
		}
		flags, typ := attrs[0], attrs[1]
		var vlen, off int
		if flags&0x10 != 0 {
			if len(attrs) < 4 {
				return nil, errors.New("bgp: truncated extended attribute")
			}
			vlen, off = int(binary.BigEndian.Uint16(attrs[2:4])), 4
		} else {
			vlen, off = int(attrs[2]), 3
		}
		if len(attrs) < off+vlen {
			return nil, fmt.Errorf("bgp: attribute %d overruns message", typ)
		}
		val := attrs[off : off+vlen]
		attrs = attrs[off+vlen:]
		switch typ {
		case attrASPath:
			path, err := parseASPathSegments(val)
			if err != nil {
				return nil, err
			}
			u.Path = path
		case attrNextHop:
			if len(val) == 4 {
				u.NextHop = binary.BigEndian.Uint32(val)
			}
		case attrMPReachNLRI:
			if len(val) < 5 {
				return nil, errors.New("bgp: short MP_REACH_NLRI")
			}
			afi := binary.BigEndian.Uint16(val[:2])
			nhLen := int(val[3])
			if len(val) < 4+nhLen+1 {
				return nil, errors.New("bgp: MP_REACH_NLRI next hop overflow")
			}
			if afi == 2 {
				v6, err := parseNLRIList(val[4+nhLen+1:], prefix.IPv6)
				if err != nil {
					return nil, err
				}
				u.NLRI = append(u.NLRI, v6...)
			}
		}
	}
	if len(u.NLRI) > 0 && len(u.Path) == 0 {
		return nil, errors.New("bgp: UPDATE announces NLRI without AS_PATH")
	}
	return u, nil
}

func parseNLRIList(b []byte, fam prefix.Family) ([]prefix.Prefix, error) {
	var out []prefix.Prefix
	for len(b) > 0 {
		plen := b[0]
		if plen > fam.MaxLen() {
			return nil, fmt.Errorf("bgp: NLRI length %d exceeds %v max", plen, fam)
		}
		n := int(plen+7) / 8
		if len(b) < 1+n {
			return nil, errors.New("bgp: truncated NLRI")
		}
		p, err := prefixFromBytes(fam, b[1:1+n], plen)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		b = b[1+n:]
	}
	return out, nil
}
