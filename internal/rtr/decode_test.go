package rtr

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/rpki"
)

// The tests in this file hold the client's reader — readBuffered, which
// decodes a well-formed Prefix PDU in the read buffer — to ReadPDU, the one it
// stands in for: over any byte stream, however it arrives, both yield the same
// PDUs, versions and errors, one PDU a call.

// decoded is one call's outcome, comparable across the two readers: the PDU
// by value, and an error by its text and, for a ProtocolError, its code.
type decoded struct {
	pdu     PDU
	version byte
	err     string
	code    int
}

// decodeStream reads r to its first error through a buffer of the client's
// size with read, and returns every call's outcome. The first skip bytes —
// whole PDUs — are discarded undecoded, which leaves the buffer as decoding
// them would.
func decodeStream(r io.Reader, skip int, read func(*bufio.Reader) (PDU, byte, error)) []decoded {
	br := bufio.NewReaderSize(r, readBufSize)
	if n, err := br.Discard(skip); err != nil {
		return []decoded{{err: fmt.Sprintf("discarded %d of %d bytes: %v", n, skip, err), code: -1}}
	}
	var out []decoded
	for {
		pdu, version, err := read(br)
		d := decoded{version: version, code: -1}
		if err != nil {
			d.err = err.Error()
			var pe *ProtocolError
			if errors.As(err, &pe) {
				d.code = int(pe.Code)
			}
			return append(out, d)
		}
		if p, ok := pdu.(*Prefix); ok {
			cp := *p // readBuffered hands out one Prefix over and over
			pdu = &cp
		}
		d.pdu = pdu
		out = append(out, d)
	}
}

// checkSameDecode decodes stream with both readers, the bytes arriving as
// mk delivers them, and fails on the first call that differs.
func checkSameDecode(t *testing.T, name string, stream []byte, skip int, mk func([]byte) io.Reader) {
	t.Helper()
	var pp Prefix
	want := decodeStream(mk(stream), skip, func(br *bufio.Reader) (PDU, byte, error) { return ReadPDU(br) })
	got := decodeStream(mk(stream), skip, func(br *bufio.Reader) (PDU, byte, error) { return readBuffered(br, &pp) })
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: call %d of %d: the client's reader returned %+v, ReadPDU %+v", name, i, len(want), got[min(i, len(got)-1)], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the client's reader made %d calls, ReadPDU %d", name, len(got), len(want))
	}
}

// chunkReader returns r's bytes 4,095, 1 and 8 at a time, over and over: a
// first read that leaves the client's buffer one byte short, then a trickle.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	size := []int{readBufSize - 1, 1, 8}[c.n%3]
	c.n++
	return c.r.Read(p[:min(size, len(p))])
}

// deliveries are the ways a stream reaches the reader in these tests. Byte by
// byte begins 96 bytes short of the buffer's edge; up to there the stream is
// one read, or a test of thousands of streams spends its time in Read calls.
var deliveries = []struct {
	name string
	mk   func([]byte) io.Reader
}{
	{"whole", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"byte by byte", func(b []byte) io.Reader {
		k := min(readBufSize-96, len(b))
		return io.MultiReader(bytes.NewReader(b[:k]), iotest.OneByteReader(bytes.NewReader(b[k:])))
	}},
	{"4095+1+8", func(b []byte) io.Reader { return &chunkReader{r: bytes.NewReader(b)} }},
}

func encode(t testing.TB, version byte, p PDU) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePDU(&buf, version, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClientReaderMatchesReadPDU places every PDU type, and Prefix PDUs with
// each thing that can be wrong with one, at and across the edge of the
// client's 4 KiB read buffer, behind a run of valid Prefix PDUs and ahead of
// one more, and cuts the stream at every byte offset from there on.
func TestClientReaderMatchesReadPDU(t *testing.T) {
	v4 := rpki.VRP{Prefix: mp("10.2.0.0/16"), MaxLength: 24, AS: 64500}
	v6 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64501}
	goodV4 := encode(t, Version1, &Prefix{Flags: FlagAnnounce, VRP: v4})
	goodV6 := encode(t, Version1, &Prefix{Flags: FlagWithdraw, VRP: v6})
	patch := func(pdu []byte, at int, b ...byte) []byte {
		out := slices.Clone(pdu)
		copy(out[at:], b)
		return out
	}
	withLength := func(pdu []byte, n int) []byte { // the length field and the bytes that follow agree
		out := append(slices.Clone(pdu), 0, 0, 0, 0)[:n]
		binary.BigEndian.PutUint32(out[4:], uint32(n))
		return out
	}
	cases := []struct {
		name string
		pdu  []byte
	}{
		{"Serial Notify", encode(t, Version1, &SerialNotify{SessionID: 7, Serial: 9})},
		{"Serial Query", encode(t, Version1, &SerialQuery{SessionID: 7, Serial: 9})},
		{"Reset Query", encode(t, Version1, &ResetQuery{})},
		{"Cache Response", encode(t, Version0, &CacheResponse{SessionID: 7})},
		{"IPv4 Prefix", goodV4},
		{"IPv4 Prefix v0", encode(t, Version0, &Prefix{Flags: FlagWithdraw, VRP: v4})},
		{"IPv6 Prefix", goodV6},
		{"End of Data", encode(t, Version1, &EndOfData{SessionID: 7, Serial: 9, Refresh: 1, Retry: 2, Expire: 3})},
		{"End of Data v0", encode(t, Version0, &EndOfData{SessionID: 7, Serial: 9})},
		{"Cache Reset", encode(t, Version1, &CacheReset{})},
		{"Router Key", encode(t, Version1, &RouterKey{Flags: 1, AS: 64500, SPKI: []byte{1, 2, 3, 4}})},
		{"Error Report", encode(t, Version1, &ErrorReport{Code: ErrNoDataAvailable, CausingPDU: goodV4, Text: "none yet"})},
		{"unknown type", patch(goodV4, 1, 99)},
		{"IPv4 Prefix, length 19", withLength(goodV4, 19)},
		{"IPv4 Prefix, length 21", withLength(goodV4, 21)},
		{"IPv6 Prefix, length 31", withLength(goodV6, 31)},
		{"IPv6 Prefix, length 33", withLength(goodV6, 33)},
		{"IPv4 Prefix, maxLength < length", patch(goodV4, 10, 8)},
		{"IPv4 Prefix, length > 32", patch(goodV4, 9, 33, 33)},
		{"IPv4 Prefix, host bits set", patch(goodV4, 14, 0xff, 0xff)},
		{"IPv6 Prefix, host bits set", patch(goodV6, 27, 1)},
		{"IPv4 length on an IPv6 type", patch(goodV4, 1, TypeIPv6Prefix)},
		{"IPv6 length on an IPv4 type", patch(goodV6, 1, TypeIPv4Prefix)},
		{"IPv4 Prefix, version 2", patch(goodV4, 0, 2)},
		{"IPv6 Prefix, version 255", patch(goodV6, 0, 255)},
		{"IPv4 Prefix, flag bits beyond announce", patch(goodV4, 8, 0xff)},
	}
	// 203 IPv4 Prefix PDUs end at byte 4,060; a 12-byte Serial Notify and
	// 8-byte Reset Queries put the case's first byte at 4,060 … 4,096, word by
	// word (one word alone cannot be made). The run is decoded once a case,
	// and skipped where the stream is cut.
	var run []byte
	for i := 0; i < 203; i++ {
		run = append(run, goodV4...)
	}
	for _, tc := range cases {
		for _, shift := range []int{0, 8, 12, 16, 20, 24, 28, 32, 36} {
			stream := slices.Clone(run)
			if shift%8 == 4 {
				stream = append(stream, encode(t, Version1, &SerialNotify{SessionID: 1, Serial: 1})...)
			}
			for len(stream) < len(run)+shift {
				stream = append(stream, encode(t, Version1, &ResetQuery{})...)
			}
			start := len(stream)
			stream = append(append(stream, tc.pdu...), goodV6...)
			for _, d := range deliveries {
				name := fmt.Sprintf("%s at byte %d, delivered %s", tc.name, start, d.name)
				checkSameDecode(t, name, stream, 0, d.mk)
				for cut := start - 4; cut < len(stream); cut++ {
					checkSameDecode(t, fmt.Sprintf("%s, cut at %d", name, cut), stream[:cut], len(run), d.mk)
				}
			}
		}
	}
}

// TestClientReaderReusesOnePrefix pins what the differential cannot see: a
// Prefix PDU decoded in place is the caller's own Prefix, and a malformed one
// leaves it as it was.
func TestClientReaderReusesOnePrefix(t *testing.T) {
	v := rpki.VRP{Prefix: mp("10.2.0.0/16"), MaxLength: 24, AS: 64500}
	good := encode(t, Version1, &Prefix{Flags: FlagAnnounce, VRP: v})
	bad := slices.Clone(good)
	bad[10] = 8 // maxLength < length
	var pp Prefix
	br := bufio.NewReaderSize(bytes.NewReader(append(slices.Clone(good), bad...)), readBufSize)
	pdu, _, err := readBuffered(br, &pp)
	if err != nil || pdu != PDU(&pp) || pp.VRP != v {
		t.Fatalf("a well-formed Prefix PDU: %v, %v; want the caller's Prefix holding %v", pdu, err, v)
	}
	if pdu, _, err = readBuffered(br, &pp); err == nil || pp.VRP != v {
		t.Fatalf("a malformed Prefix PDU: %v, %v, the caller's Prefix now %v", pdu, err, pp.VRP)
	}
}
