package rpkix

import (
	"encoding/asn1"
	"reflect"
	"testing"

	"repro/internal/prefix"
)

// FuzzParseSignedObject feeds arbitrary bytes to the parsers compressroas
// -repo and ScanROAs run on repository files. Nothing may panic, and whatever
// ParseSignedObject + DecodeROAContent accept must re-encode through
// EncodeROAContent to an equal ROA. Input the envelope parser rejects is
// tried as bare eContent, so the ROA decoder is reachable without a valid
// certificate around it.
func FuzzParseSignedObject(f *testing.F) {
	ta, err := NewTrustAnchor("fuzz-ta")
	if err != nil {
		f.Fatal(err)
	}
	ca, err := ta.NewChild("fuzz-ca", []prefix.Prefix{mp("168.122.0.0/16"), mp("2001:db8::/32")})
	if err != nil {
		f.Fatal(err)
	}
	signed, err := ca.IssueROA(sampleROA())
	if err != nil {
		f.Fatal(err)
	}
	for n := len(signed); n > 0; n /= 2 {
		f.Add(signed[:n])
	}
	eContent, err := EncodeROAContent(sampleROA())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(eContent)
	// IPv6 block before the IPv4 one: legal DER that EncodeROAContent never
	// writes; the decoder must hand back the canonical order.
	var raw roaASN1
	if _, err := asn1.Unmarshal(eContent, &raw); err != nil {
		f.Fatal(err)
	}
	raw.IPAddrBlocks[0], raw.IPAddrBlocks[1] = raw.IPAddrBlocks[1], raw.IPAddrBlocks[0]
	swapped, err := asn1.Marshal(raw)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(swapped)

	f.Fuzz(func(t *testing.T, data []byte) {
		eContent := data
		if obj, err := ParseSignedObject(data); err == nil {
			_ = obj.VerifySignature() // any verdict is fine; it must not panic
			eContent = obj.EContent
		}
		roa, err := DecodeROAContent(eContent)
		if err != nil {
			return
		}
		der, err := EncodeROAContent(roa)
		if err != nil {
			t.Fatalf("accepted ROA %+v does not re-encode: %v", roa, err)
		}
		back, err := DecodeROAContent(der)
		if err != nil {
			t.Fatalf("re-encoding of %+v does not decode: %v", roa, err)
		}
		if !reflect.DeepEqual(back, roa) {
			t.Fatalf("re-encoding changed the ROA: %+v vs %+v", back, roa)
		}
	})
}
