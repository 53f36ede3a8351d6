package rtr

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/rpki"
)

// FuzzReadPDU checks the PDU parser never panics on arbitrary bytes and
// that everything it accepts re-serializes and re-parses identically — and
// that the client's reader, which decodes a well-formed Prefix PDU in its
// buffer, makes of the same bytes what ReadPDU does: as one stream of PDUs,
// alone and 12 bytes short of the buffer's edge, however it is delivered.
func FuzzReadPDU(f *testing.F) {
	var lead []byte // 4,084 bytes of whole PDUs
	for i := 0; i < 203; i++ {
		lead = append(lead, encode(f, Version1, &Prefix{Flags: FlagAnnounce, VRP: rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}})...)
	}
	for i := 0; i < 3; i++ {
		lead = append(lead, encode(f, Version1, &ResetQuery{})...)
	}
	// Seed with every valid PDU kind.
	seedPDUs := []PDU{
		&SerialNotify{SessionID: 1, Serial: 2},
		&SerialQuery{SessionID: 1, Serial: 2},
		&ResetQuery{},
		&CacheResponse{SessionID: 3},
		&Prefix{Flags: FlagAnnounce, VRP: rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 24, AS: 1}},
		&Prefix{Flags: FlagWithdraw, VRP: rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 2}},
		&EndOfData{SessionID: 1, Serial: 2, Refresh: 3, Retry: 4, Expire: 5},
		&CacheReset{},
		&ErrorReport{Code: 2, CausingPDU: []byte{1}, Text: "x"},
	}
	for _, p := range seedPDUs {
		for _, v := range []byte{Version0, Version1} {
			var buf bytes.Buffer
			if err := WritePDU(&buf, v, p); err == nil {
				f.Add(buf.Bytes())
			}
		}
	}
	f.Add([]byte{1, 99, 0, 0, 0, 0, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		atEdge := append(slices.Clone(lead), data...)
		for _, d := range deliveries {
			checkSameDecode(t, d.name, data, 0, d.mk)
			checkSameDecode(t, d.name+", at the buffer's edge", atEdge, len(lead), d.mk)
		}
		pdu, version, err := ReadPDU(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePDU(&buf, version, pdu); err != nil {
			t.Fatalf("re-serializing accepted PDU %T: %v", pdu, err)
		}
		pdu2, _, err := ReadPDU(&buf)
		if err != nil {
			t.Fatalf("re-parsing %T: %v", pdu, err)
		}
		if pdu.Type() != pdu2.Type() {
			t.Fatalf("type changed: %d vs %d", pdu.Type(), pdu2.Type())
		}
	})
}
