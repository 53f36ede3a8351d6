package rtr

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func roundTrip(t *testing.T, version byte, p PDU) PDU {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePDU(&buf, version, p); err != nil {
		t.Fatalf("write %T: %v", p, err)
	}
	// Declared length must match what was written.
	if got := binary.BigEndian.Uint32(buf.Bytes()[4:]); int(got) != buf.Len() {
		t.Fatalf("%T: declared length %d, wrote %d", p, got, buf.Len())
	}
	q, v, err := ReadPDU(&buf)
	if err != nil {
		t.Fatalf("read %T: %v", p, err)
	}
	if v != version {
		t.Fatalf("version %d, want %d", v, version)
	}
	return q
}

func TestPDURoundTrips(t *testing.T) {
	v4 := rpki.VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111}
	v6 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64496}
	for _, version := range []byte{Version0, Version1} {
		pdus := []PDU{
			&SerialNotify{SessionID: 7, Serial: 42},
			&SerialQuery{SessionID: 7, Serial: 42},
			&ResetQuery{},
			&CacheResponse{SessionID: 9},
			&Prefix{Flags: FlagAnnounce, VRP: v4},
			&Prefix{Flags: FlagWithdraw, VRP: v4},
			&Prefix{Flags: FlagAnnounce, VRP: v6},
			&CacheReset{},
			&ErrorReport{Code: ErrCorruptData, CausingPDU: []byte{1, 2, 3}, Text: "boom"},
		}
		for _, p := range pdus {
			q := roundTrip(t, version, p)
			switch a := p.(type) {
			case *SerialNotify:
				if *q.(*SerialNotify) != *a {
					t.Errorf("v%d SerialNotify mismatch", version)
				}
			case *SerialQuery:
				if *q.(*SerialQuery) != *a {
					t.Errorf("v%d SerialQuery mismatch", version)
				}
			case *CacheResponse:
				if *q.(*CacheResponse) != *a {
					t.Errorf("v%d CacheResponse mismatch", version)
				}
			case *Prefix:
				if *q.(*Prefix) != *a {
					t.Errorf("v%d Prefix mismatch: %+v vs %+v", version, q, a)
				}
			case *ErrorReport:
				b := q.(*ErrorReport)
				if b.Code != a.Code || b.Text != a.Text || !bytes.Equal(b.CausingPDU, a.CausingPDU) {
					t.Errorf("v%d ErrorReport mismatch", version)
				}
			}
		}
	}
}

// TestPDUWireBytes pins every PDU kind's encoding, in both versions, to fixed
// bytes, each field checked against the layouts of RFC 6810 §5 and RFC 8210
// §5. A round trip cannot
// see a fault the encoder and the parser share (two fields swapped on both
// sides, a length counted the same wrong way); this test can.
func TestPDUWireBytes(t *testing.T) {
	var ski [20]byte
	for i := range ski {
		ski[i] = byte(i + 1)
	}
	cases := []struct {
		name   string
		p      PDU
		v0, v1 string // hex; "" where the version cannot carry the PDU
	}{
		{"SerialNotify", &SerialNotify{SessionID: 0x5eed, Serial: 0xfffffffe},
			"00005eed0000000cfffffffe", "01005eed0000000cfffffffe"},
		{"SerialQuery", &SerialQuery{SessionID: 0x5eed, Serial: 42},
			"00015eed0000000c0000002a", "01015eed0000000c0000002a"},
		{"ResetQuery", &ResetQuery{}, "0002000000000008", "0102000000000008"},
		{"CacheResponse", &CacheResponse{SessionID: 0xbeef}, "0003beef00000008", "0103beef00000008"},
		{"IPv4Prefix", &Prefix{Flags: FlagAnnounce, VRP: rpki.VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111}},
			"000400000000001401101800a87a00000000006f", "010400000000001401101800a87a00000000006f"},
		{"IPv6Prefix", &Prefix{Flags: FlagWithdraw, VRP: rpki.VRP{Prefix: mp("2001:db8:0:0:1:2::/96"), MaxLength: 128, AS: 4200000000}},
			"00060000000000200060800020010db8000000000001000200000000fa56ea00",
			"01060000000000200060800020010db8000000000001000200000000fa56ea00"},
		{"EndOfData", &EndOfData{SessionID: 0x5eed, Serial: 9, Refresh: 3600, Retry: 600, Expire: 7200},
			"00075eed0000000c00000009", "01075eed000000180000000900000e100000025800001c20"},
		{"CacheReset", &CacheReset{}, "0008000000000008", "0108000000000008"},
		{"RouterKey", &RouterKey{Flags: 1, SKI: ski, AS: 64496, SPKI: []byte{0xaa, 0xbb, 0xcc}},
			"", "01090100000000230102030405060708090a0b0c0d0e0f10111213140000fbf0aabbcc"},
		{"ErrorReport", &ErrorReport{Code: ErrInvalidRequest, CausingPDU: []byte{1, 1, 0x5e, 0xed, 0, 0, 0, 12, 0, 0, 0, 42}, Text: "no"},
			"000a00030000001e0000000c01015eed0000000c0000002a000000026e6f",
			"010a00030000001e0000000c01015eed0000000c0000002a000000026e6f"},
		// Both variable fields are cut at fieldCap = (MaxPDUSize-16)/2 =
		// 32,760 bytes, so the PDU is exactly MaxPDUSize long.
		{"ErrorReport/truncated", &ErrorReport{Code: ErrInternalError, CausingPDU: bytes.Repeat([]byte{0xc1}, 40_000), Text: strings.Repeat("ab", 20_000)},
			"000a000100010000" + "00007ff8" + strings.Repeat("c1", 32_760) + "00007ff8" + strings.Repeat("6162", 16_380),
			"010a000100010000" + "00007ff8" + strings.Repeat("c1", 32_760) + "00007ff8" + strings.Repeat("6162", 16_380)},
	}
	for _, c := range cases {
		for version, want := range []string{c.v0, c.v1} {
			var buf bytes.Buffer
			err := WritePDU(&buf, byte(version), c.p)
			if want == "" {
				if err == nil {
					t.Errorf("%s v%d: encoded %x, want an error", c.name, version, buf.Bytes())
				}
				continue
			}
			if err != nil {
				t.Errorf("%s v%d: %v", c.name, version, err)
				continue
			}
			if got := hex.EncodeToString(buf.Bytes()); got != want {
				if len(got) > 96 {
					t.Errorf("%s v%d: %d bytes, want %d, or the bytes differ", c.name, version, len(got)/2, len(want)/2)
				} else {
					t.Errorf("%s v%d:\n got %s\nwant %s", c.name, version, got, want)
				}
			}
		}
	}
}

func TestEndOfDataVersions(t *testing.T) {
	in := &EndOfData{SessionID: 5, Serial: 99, Refresh: 3600, Retry: 600, Expire: 7200}
	// Version 0 drops the timers.
	out0 := roundTrip(t, Version0, in).(*EndOfData)
	if out0.Serial != 99 || out0.SessionID != 5 || out0.Refresh != 0 {
		t.Errorf("v0 EndOfData = %+v", out0)
	}
	out1 := roundTrip(t, Version1, in).(*EndOfData)
	if *out1 != *in {
		t.Errorf("v1 EndOfData = %+v", out1)
	}
}

func TestRouterKeyVersionGate(t *testing.T) {
	rk := &RouterKey{Flags: 1, AS: 64496, SPKI: []byte{1, 2, 3, 4}}
	rk.SKI[0] = 0xab
	var buf bytes.Buffer
	if err := WritePDU(&buf, Version0, rk); err == nil {
		t.Fatal("Router Key must be rejected for version 0")
	}
	out := roundTrip(t, Version1, rk).(*RouterKey)
	if out.Flags != 1 || out.AS != 64496 || out.SKI != rk.SKI || !bytes.Equal(out.SPKI, rk.SPKI) {
		t.Errorf("RouterKey mismatch: %+v", out)
	}
}

func TestReadPDUErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		code uint16
	}{
		{"bad version", []byte{9, 2, 0, 0, 0, 0, 0, 8}, ErrUnsupportedVersion},
		{"bad length", []byte{1, 2, 0, 0, 0, 0, 0, 4}, ErrCorruptData},
		{"unknown type", []byte{1, 99, 0, 0, 0, 0, 0, 8}, ErrUnsupportedPDUType},
		{"wrong body size", []byte{1, 2, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0}, ErrCorruptData},
		{"router key v0", append([]byte{0, 9, 0, 0, 0, 0, 0, 32}, make([]byte, 24)...), ErrUnsupportedPDUType},
	}
	for _, c := range cases {
		_, _, err := ReadPDU(bytes.NewReader(c.raw))
		pe, ok := err.(*ProtocolError)
		if !ok {
			t.Errorf("%s: err = %v, want ProtocolError", c.name, err)
			continue
		}
		if pe.Code != c.code {
			t.Errorf("%s: code = %d, want %d", c.name, pe.Code, c.code)
		}
	}
	// Truncated stream.
	if _, _, err := ReadPDU(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := ReadPDU(bytes.NewReader([]byte{1, 0, 0, 0, 0, 0, 0, 12, 1})); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: %v", err)
	}
}

func TestBadPrefixPDURejected(t *testing.T) {
	// maxLength < prefix length must produce ErrCorruptData.
	var buf bytes.Buffer
	if err := WritePDU(&buf, Version1, &Prefix{Flags: FlagAnnounce,
		VRP: rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 16, AS: 1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[10] = 4 // maxLength 4 < len 8
	_, _, err := ReadPDU(bytes.NewReader(raw))
	pe, ok := err.(*ProtocolError)
	if !ok || pe.Code != ErrCorruptData {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(pe.Error(), "rtr:") {
		t.Error("ProtocolError.Error format")
	}
}

func TestErrorReportTruncation(t *testing.T) {
	big := strings.Repeat("x", MaxPDUSize)
	er := &ErrorReport{Code: 1, CausingPDU: make([]byte, MaxPDUSize), Text: big}
	var buf bytes.Buffer
	if err := WritePDU(&buf, Version1, er); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > MaxPDUSize+headerLen+8 {
		t.Fatalf("oversized error report: %d bytes", buf.Len())
	}
	out, _, err := ReadPDU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.(*ErrorReport).Text) == 0 {
		t.Error("truncated text vanished entirely")
	}
}

func TestErrorReportMalformedLengths(t *testing.T) {
	// causing-PDU length exceeding the body must be rejected.
	body := make([]byte, 8)
	binary.BigEndian.PutUint32(body, 100) // longer than body
	raw := append(appendHeader(nil, Version1, TypeErrorReport, 0, uint32(8+len(body))), body...)
	if _, _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
		t.Error("overflowing causing-PDU length accepted")
	}
	// text length overflow.
	body2 := make([]byte, 8)
	binary.BigEndian.PutUint32(body2, 0)
	binary.BigEndian.PutUint32(body2[4:], 50)
	raw2 := append(appendHeader(nil, Version1, TypeErrorReport, 0, uint32(8+len(body2))), body2...)
	if _, _, err := ReadPDU(bytes.NewReader(raw2)); err == nil {
		t.Error("overflowing text length accepted")
	}
}

func TestWritePDUUnknownVersion(t *testing.T) {
	if err := WritePDU(io.Discard, 7, &ResetQuery{}); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestPrefixPDUQuickRoundTrip(t *testing.T) {
	f := func(addr uint64, l8, mlDelta uint8, as uint32, v6 bool, announce bool) bool {
		fam := prefix.IPv4
		if v6 {
			fam = prefix.IPv6
		}
		l := l8 % (fam.MaxLen() + 1)
		hi, lo := addr, addr*0x9e3779b97f4a7c15
		if fam == prefix.IPv4 {
			hi &= 0xffffffff00000000
			lo = 0
		}
		p, err := prefix.Make(fam, hi, lo, l)
		if err != nil {
			return false
		}
		ml := l + mlDelta%(fam.MaxLen()-l+1)
		flags := FlagWithdraw
		if announce {
			flags = FlagAnnounce
		}
		in := &Prefix{Flags: flags, VRP: rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(as)}}
		var buf bytes.Buffer
		if err := WritePDU(&buf, Version1, in); err != nil {
			return false
		}
		out, _, err := ReadPDU(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*Prefix)
		return ok && *got == *in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
