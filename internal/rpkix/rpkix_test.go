package rpkix

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"math/big"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func sampleROA() rpki.ROA {
	return rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 24},
		{Prefix: mp("168.122.225.0/24"), MaxLength: 24},
		{Prefix: mp("2001:db8::/32"), MaxLength: 32},
	}}
}

func TestEContentRoundTrip(t *testing.T) {
	in := sampleROA()
	der, err := EncodeROAContent(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeROAContent(der)
	if err != nil {
		t.Fatal(err)
	}
	if out.AS != in.AS || len(out.Prefixes) != len(in.Prefixes) {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Prefixes {
		if out.Prefixes[i] != in.Prefixes[i] {
			t.Errorf("prefix %d: %v vs %v", i, out.Prefixes[i], in.Prefixes[i])
		}
	}
}

func TestEContentOmitsRedundantMaxLength(t *testing.T) {
	// An entry with maxLength == len must encode without the optional field,
	// making the DER shorter than the maxLength-using version.
	a, err := EncodeROAContent(rpki.ROA{AS: 1, Prefixes: []rpki.ROAPrefix{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeROAContent(rpki.ROA{AS: 1, Prefixes: []rpki.ROAPrefix{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 24}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) >= len(b) {
		t.Errorf("no-maxLength encoding (%d bytes) not shorter than maxLength one (%d)", len(a), len(b))
	}
}

func TestEContentRejectsBad(t *testing.T) {
	if _, err := EncodeROAContent(rpki.ROA{AS: 1}); err == nil {
		t.Error("empty ROA encoded")
	}
	if _, err := DecodeROAContent([]byte{0x30, 0x00}); err == nil {
		t.Error("empty SEQUENCE decoded")
	}
	if _, err := DecodeROAContent([]byte("garbage")); err == nil {
		t.Error("garbage decoded")
	}
	// Trailing bytes.
	der, _ := EncodeROAContent(sampleROA())
	if _, err := DecodeROAContent(append(der, 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestEContentQuick(t *testing.T) {
	f := func(addr uint64, l8, mlDelta uint8, as uint32, v6 bool) bool {
		fam := prefix.IPv4
		if v6 {
			fam = prefix.IPv6
		}
		l := l8 % (fam.MaxLen() + 1)
		hi, lo := addr, addr*0x2545f4914f6cdd1d
		if fam == prefix.IPv4 {
			hi &= 0xffffffff00000000
			lo = 0
		}
		p, err := prefix.Make(fam, hi, lo, l)
		if err != nil {
			return false
		}
		ml := l + mlDelta%(fam.MaxLen()-l+1)
		in := rpki.ROA{AS: rpki.ASN(as), Prefixes: []rpki.ROAPrefix{{Prefix: p, MaxLength: ml}}}
		der, err := EncodeROAContent(in)
		if err != nil {
			return false
		}
		out, err := DecodeROAContent(der)
		if err != nil {
			return false
		}
		return out.AS == in.AS && len(out.Prefixes) == 1 && out.Prefixes[0] == in.Prefixes[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestResourcesRoundTrip(t *testing.T) {
	in := []prefix.Prefix{mp("10.0.0.0/8"), mp("168.122.0.0/16"), mp("2001:db8::/32")}
	ext, err := EncodeIPResources(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Critical {
		t.Error("resources extension must be critical (RFC 6487)")
	}
	out, err := DecodeIPResources(ext)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip: %v", out)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("resource %d: %v vs %v", i, out[i], in[i])
		}
	}
}

func TestResourcesContain(t *testing.T) {
	have := []prefix.Prefix{mp("10.0.0.0/8"), mp("2001:db8::/32")}
	if !ResourcesContain(have, []prefix.Prefix{mp("10.5.0.0/16"), mp("2001:db8:1::/48")}) {
		t.Error("containment failed")
	}
	if ResourcesContain(have, []prefix.Prefix{mp("11.0.0.0/16")}) {
		t.Error("non-contained accepted")
	}
	if !ResourcesContain(AllResources(), []prefix.Prefix{mp("10.0.0.0/8"), mp("::/0")}) {
		t.Error("AllResources must contain everything")
	}
}

// buildChain creates TA -> RIR CA -> org CA for the running example.
func buildChain(t *testing.T) (*Authority, *Authority, *Authority) {
	t.Helper()
	ta, err := NewTrustAnchor("Test TA")
	if err != nil {
		t.Fatal(err)
	}
	rir, err := ta.NewChild("Test RIR", []prefix.Prefix{mp("168.0.0.0/8"), mp("2001:db8::/32")})
	if err != nil {
		t.Fatal(err)
	}
	org, err := rir.NewChild("Boston University", []prefix.Prefix{mp("168.122.0.0/16")})
	if err != nil {
		t.Fatal(err)
	}
	return ta, rir, org
}

func TestIssueAndValidateROA(t *testing.T) {
	ta, rir, org := buildChain(t)
	roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 16},
		{Prefix: mp("168.122.225.0/24"), MaxLength: 24},
	}}
	der, err := org.IssueROA(roa)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateROA(der, ta.Cert, []*x509.Certificate{rir.Cert, org.Cert})
	if err != nil {
		t.Fatal(err)
	}
	if got.AS != 111 || len(got.Prefixes) != 2 {
		t.Fatalf("validated ROA = %+v", got)
	}
}

func TestValidateRejectsTampering(t *testing.T) {
	ta, rir, org := buildChain(t)
	roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("168.122.0.0/16"), MaxLength: 16}}}
	der, err := org.IssueROA(roa)
	if err != nil {
		t.Fatal(err)
	}
	ints := []*x509.Certificate{rir.Cert, org.Cert}

	// Flip a byte somewhere in the middle (the eContent region).
	tampered := append([]byte(nil), der...)
	tampered[len(tampered)/2] ^= 0xff
	if _, err := ValidateROA(tampered, ta.Cert, ints); err == nil {
		t.Error("tampered object validated")
	}
}

// signWithEE signs roa under ca through a hand-made EE certificate holding
// resources and serial: what IssueROA never makes, an EE narrower than its
// ROA or a serial past int64.
func signWithEE(t *testing.T, ca *Authority, roa rpki.ROA, resources []prefix.Prefix, serial *big.Int) []byte {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := EncodeIPResources(resources)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:    serial,
		Subject:         pkix.Name{CommonName: "hand-made EE"},
		NotBefore:       time.Now().Add(-time.Hour),
		NotAfter:        time.Now().Add(time.Hour),
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: []pkix.Extension{ext},
		SubjectKeyId:    keyID(&key.PublicKey),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, &key.PublicKey, ca.Key)
	if err != nil {
		t.Fatal(err)
	}
	ee, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	content, err := EncodeROAContent(roa)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := SignROA(content, ee, key)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestValidateROAChecksEECoverage signs a /16 ROA through an EE certificate
// holding only a /24 of it: the chain holds, the EE does not cover its ROA.
func TestValidateROAChecksEECoverage(t *testing.T) {
	ta, rir, org := buildChain(t)
	ints := []*x509.Certificate{rir.Cert, org.Cert}
	ee := []prefix.Prefix{mp("168.122.0.0/24")}
	for _, c := range []struct {
		roa  string
		want bool
	}{{"168.122.0.0/24", true}, {"168.122.0.0/16", false}} {
		roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp(c.roa), MaxLength: 24}}}
		_, err := ValidateROA(signWithEE(t, org, roa, ee, big.NewInt(99)), ta.Cert, ints)
		if got := err == nil; got != c.want {
			t.Errorf("ROA for %s under an EE holding %v: valid %v (%v), want %v", c.roa, ee, got, err, c.want)
		}
	}
}

func TestValidateRejectsWrongAnchor(t *testing.T) {
	ta, rir, org := buildChain(t)
	_ = ta
	other, err := NewTrustAnchor("Evil TA")
	if err != nil {
		t.Fatal(err)
	}
	roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("168.122.0.0/16"), MaxLength: 16}}}
	der, err := org.IssueROA(roa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateROA(der, other.Cert, []*x509.Certificate{rir.Cert, org.Cert}); err == nil {
		t.Error("object chained to the wrong anchor validated")
	}
}

func TestIssueRejectsResourceOverclaim(t *testing.T) {
	_, _, org := buildChain(t) // org holds only 168.122.0.0/16
	roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("10.0.0.0/8"), MaxLength: 8}}}
	if _, err := org.IssueROA(roa); err == nil {
		t.Error("over-claiming ROA issued")
	}
	// A child CA cannot exceed its parent either.
	if _, err := org.NewChild("too big", []prefix.Prefix{mp("0.0.0.0/0")}); err == nil {
		t.Error("over-claiming child CA issued")
	}
}

func TestRepositoryScan(t *testing.T) {
	dir := t.TempDir()
	repo, err := NewRepository("Scan TA")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := repo.AddCA("Org", []string{"168.122.0.0/16", "87.254.32.0/19"})
	if err != nil {
		t.Fatal(err)
	}
	roas := []rpki.ROA{
		{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("168.122.0.0/16"), MaxLength: 24}}},
		{AS: 31283, Prefixes: []rpki.ROAPrefix{
			{Prefix: mp("87.254.32.0/19"), MaxLength: 19},
			{Prefix: mp("87.254.32.0/20"), MaxLength: 20},
		}},
	}
	for _, r := range roas {
		if err := repo.PublishROA(ca, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Write(dir); err != nil {
		t.Fatal(err)
	}
	// Drop a garbage object alongside: scan must reject it, not die.
	if err := os.WriteFile(filepath.Join(dir, "zzgarbage.roa"), []byte("not DER"), 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ROAs) != 2 {
		t.Fatalf("scanned %d ROAs, want 2 (rejected: %v)", len(res.ROAs), res.Rejected)
	}
	if len(res.Rejected) != 1 {
		t.Fatalf("rejected = %v, want the garbage file only", res.Rejected)
	}
	want := rpki.NewSet([]rpki.VRP{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111},
		{Prefix: mp("87.254.32.0/19"), MaxLength: 19, AS: 31283},
		{Prefix: mp("87.254.32.0/20"), MaxLength: 20, AS: 31283},
	})
	if !res.VRPs.Equal(want) {
		t.Fatalf("VRPs = %v, want %v", res.VRPs.VRPs(), want.VRPs())
	}
}

// TestScanRejectsAsValidateROA pins ScanROAs's reasons for objects it parses
// once itself: with no manifest to sift them first, a file that is not a
// signed object and one signed under another trust anchor are each rejected
// with the error ValidateROA returns for its bytes.
func TestScanRejectsAsValidateROA(t *testing.T) {
	dir := t.TempDir()
	repo, err := NewRepository("Scan TA")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := repo.AddCA("Org", []string{"168.122.0.0/16"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewRepository("Other TA")
	if err != nil {
		t.Fatal(err)
	}
	oca, err := other.AddCA("Other", []string{"168.122.0.0/16"})
	if err != nil {
		t.Fatal(err)
	}
	roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("168.122.0.0/16"), MaxLength: 24}}}
	if err := repo.PublishROA(ca, roa); err != nil {
		t.Fatal(err)
	}
	if err := other.PublishROA(oca, roa); err != nil {
		t.Fatal(err)
	}
	if err := repo.Write(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "manifest.mft")); err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{"garbage.roa": []byte("not DER"), "foreign.roa": other.ROAs[0]}
	for name, der := range bad {
		if err := os.WriteFile(filepath.Join(dir, name), der, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ROAs) != 1 || len(res.Rejected) != len(bad) {
		t.Fatalf("accepted %d ROAs, rejected %v: want 1 and the %d bad files", len(res.ROAs), res.Rejected, len(bad))
	}
	for name, der := range bad {
		_, want := ValidateROA(der, repo.TA.Cert, []*x509.Certificate{ca.Cert})
		if got := res.Rejected[name]; got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("%s rejected with %v, want ValidateROA's %v", name, got, want)
		}
	}
}

func TestScanMissingTA(t *testing.T) {
	if _, err := ScanROAs(t.TempDir()); err == nil {
		t.Error("scan without ta.cer succeeded")
	}
}

func TestParseSignedObjectErrors(t *testing.T) {
	if _, err := ParseSignedObject([]byte("junk")); err == nil {
		t.Error("junk parsed")
	}
}
