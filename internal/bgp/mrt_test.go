package bgp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func TestMRTRoundTrip(t *testing.T) {
	anns := []Announcement{
		{Prefix: mp("168.122.0.0/16"), Path: []rpki.ASN{3356, 111}},
		{Prefix: mp("168.122.225.0/24"), Path: []rpki.ASN{111}},
		{Prefix: mp("87.254.32.0/19"), Path: []rpki.ASN{3356, 6939, 31283}},
		{Prefix: mp("2001:db8::/32"), Path: []rpki.ASN{64496}},
		{Prefix: mp("0.0.0.0/0"), Path: []rpki.ASN{7018}}, // zero-length prefix bytes
	}
	var buf bytes.Buffer
	mw := NewMRTWriter(&buf, 1496275200) // 6/1/2017
	for _, a := range anns {
		if err := mw.WriteAnnouncement(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(anns) {
		t.Fatalf("parsed %d announcements, want %d", len(got), len(anns))
	}
	for i, a := range anns {
		g := got[i]
		if g.Prefix != a.Prefix || len(g.Path) != len(a.Path) {
			t.Fatalf("announcement %d: %+v vs %+v", i, g, a)
		}
		for j := range a.Path {
			if g.Path[j] != a.Path[j] {
				t.Fatalf("announcement %d path[%d]: %v vs %v", i, j, g.Path[j], a.Path[j])
			}
		}
	}
}

func TestMRTEmptyDump(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMRTWriter(&buf, 0)
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Just the peer index: parses to zero announcements.
	if buf.Len() == 0 {
		t.Fatal("peer index record missing")
	}
	got, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d announcements from empty dump", len(got))
	}
}

func TestMRTRejectsEmptyPath(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMRTWriter(&buf, 0)
	if err := mw.WriteAnnouncement(Announcement{Prefix: mp("10.0.0.0/8")}); err == nil {
		t.Fatal("empty path accepted")
	}
}

func TestMRTSkipsUnknownRecords(t *testing.T) {
	// A BGP4MP record (type 16) interleaved in the stream must be skipped.
	var buf bytes.Buffer
	mw := NewMRTWriter(&buf, 0)
	if err := mw.WriteAnnouncement(Announcement{Prefix: mp("10.0.0.0/8"), Path: []rpki.ASN{7}}); err != nil {
		t.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	var alien bytes.Buffer
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint16(hdr[4:], 16) // BGP4MP
	binary.BigEndian.PutUint32(hdr[8:], 3)
	alien.Write(hdr)
	alien.Write([]byte{1, 2, 3})
	alien.Write(buf.Bytes())

	got, err := ReadMRT(&alien)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d announcements", len(got))
	}
}

func TestMRTTruncationErrors(t *testing.T) {
	var buf bytes.Buffer
	mw := NewMRTWriter(&buf, 0)
	if err := mw.WriteAnnouncement(Announcement{Prefix: mp("10.0.0.0/8"), Path: []rpki.ASN{7}}); err != nil {
		t.Fatal(err)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncating anywhere inside a record must error, not panic or loop.
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := ReadMRT(bytes.NewReader(full[:cut])); err == nil && cut < len(full) {
			// Cuts at exact record boundaries parse cleanly; others must not.
			if cut != 12+recordLen(full) {
				continue
			}
		}
	}
	// Corrupt length field.
	bad := append([]byte(nil), full...)
	binary.BigEndian.PutUint32(bad[8:], 1<<25)
	if _, err := ReadMRT(bytes.NewReader(bad)); err == nil {
		t.Fatal("implausible record length accepted")
	}
}

// recordLen returns the body length of the first record.
func recordLen(b []byte) int { return int(binary.BigEndian.Uint32(b[8:])) }

func TestMRTASSetDropped(t *testing.T) {
	// Hand-craft a RIB record whose AS_PATH is an AS_SET: parser must skip
	// the entry without error (RFC 6811 treats AS_SET origins as unusable).
	attrs := []byte{0x40, attrASPath, 6, asPathSet, 1, 0, 0, 0, 99}
	body := []byte{}
	body = binary.BigEndian.AppendUint32(body, 0) // seq
	body = append(body, 8)                        // prefix len
	body = append(body, 10)                       // 10.0.0.0/8
	body = binary.BigEndian.AppendUint16(body, 1) // entry count
	body = binary.BigEndian.AppendUint16(body, 0) // peer index
	body = binary.BigEndian.AppendUint32(body, 0) // originated
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	var buf bytes.Buffer
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint16(hdr[4:], mrtTypeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:], mrtRIBIPv4Unicast)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	buf.Write(hdr)
	buf.Write(body)
	got, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("AS_SET entry parsed: %+v", got)
	}
}

func TestMRTExtendedLengthAttribute(t *testing.T) {
	// AS_PATH with the extended-length flag set (0x50) must parse.
	path := []rpki.ASN{3356, 111}
	attrVal := []byte{asPathSequence, byte(len(path))}
	for _, as := range path {
		attrVal = binary.BigEndian.AppendUint32(attrVal, uint32(as))
	}
	attrs := []byte{0x50, attrASPath}
	attrs = binary.BigEndian.AppendUint16(attrs, uint16(len(attrVal)))
	attrs = append(attrs, attrVal...)

	body := []byte{}
	body = binary.BigEndian.AppendUint32(body, 0)
	body = append(body, 16)
	body = append(body, 168, 122) // 168.122.0.0/16
	body = binary.BigEndian.AppendUint16(body, 1)
	body = binary.BigEndian.AppendUint16(body, 0)
	body = binary.BigEndian.AppendUint32(body, 0)
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	var buf bytes.Buffer
	hdr := make([]byte, 12)
	binary.BigEndian.PutUint16(hdr[4:], mrtTypeTableDumpV2)
	binary.BigEndian.PutUint16(hdr[6:], mrtRIBIPv4Unicast)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(body)))
	buf.Write(hdr)
	buf.Write(body)
	got, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Origin() != 111 || got[0].Prefix != mp("168.122.0.0/16") {
		t.Fatalf("got %+v", got)
	}
}

func TestMRTRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var anns []Announcement
	for i := 0; i < 300; i++ {
		fam := prefix.IPv4
		if rng.Intn(4) == 0 {
			fam = prefix.IPv6
		}
		l := uint8(rng.Intn(int(fam.MaxLen()) + 1))
		hi, lo := rng.Uint64(), rng.Uint64()
		if fam == prefix.IPv4 {
			hi &= 0xffffffff00000000
			lo = 0
		}
		p, err := prefix.Make(fam, hi, lo, l)
		if err != nil {
			t.Fatal(err)
		}
		path := make([]rpki.ASN, 1+rng.Intn(5))
		for j := range path {
			path[j] = rpki.ASN(rng.Uint32())
		}
		anns = append(anns, Announcement{Prefix: p, Path: path})
	}
	var buf bytes.Buffer
	mw := NewMRTWriter(&buf, 42)
	for _, a := range anns {
		if err := mw.WriteAnnouncement(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(anns) {
		t.Fatalf("parsed %d, want %d", len(got), len(anns))
	}
	for i := range anns {
		if got[i].Prefix != anns[i].Prefix || got[i].Origin() != anns[i].Origin() {
			t.Fatalf("announcement %d mismatch", i)
		}
	}
}
