package rpkix

import (
	"crypto/rand"
	"crypto/x509"
	"math/big"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func TestManifestContentRoundTrip(t *testing.T) {
	in := Manifest{
		Number:     42,
		ThisUpdate: time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC),
		NextUpdate: time.Date(2017, 7, 1, 0, 0, 0, 0, time.UTC),
		Files: map[string][32]byte{
			"roa00000.roa": {1, 2, 3},
			"roa00001.roa": {4, 5, 6},
		},
	}
	der, err := EncodeManifestContent(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeManifestContent(der)
	if err != nil {
		t.Fatal(err)
	}
	if out.Number != in.Number || !out.ThisUpdate.Equal(in.ThisUpdate) || !out.NextUpdate.Equal(in.NextUpdate) {
		t.Fatalf("round trip: %+v", out)
	}
	if len(out.Files) != 2 || out.Files["roa00000.roa"] != in.Files["roa00000.roa"] {
		t.Fatalf("files: %+v", out.Files)
	}
	// Deterministic encoding regardless of map order.
	der2, err := EncodeManifestContent(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(der) != string(der2) {
		t.Error("manifest encoding not deterministic")
	}
	if _, err := DecodeManifestContent([]byte("junk")); err == nil {
		t.Error("junk manifest decoded")
	}
}

func TestIssueAndValidateManifest(t *testing.T) {
	ta, rir, org := buildChain(t)
	m := Manifest{
		Number:     7,
		ThisUpdate: time.Now().Add(-time.Hour),
		NextUpdate: time.Now().Add(time.Hour),
		Files:      map[string][32]byte{"a.roa": {9}},
	}
	der, err := org.IssueManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateManifest(der, ta.Cert, []*x509.Certificate{rir.Cert, org.Cert})
	if err != nil {
		t.Fatal(err)
	}
	if got.Number != 7 || len(got.Files) != 1 {
		t.Fatalf("validated manifest: %+v", got)
	}
	// Wrong anchor fails.
	evil, err := NewTrustAnchor("evil")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateManifest(der, evil.Cert, []*x509.Certificate{rir.Cert, org.Cert}); err == nil {
		t.Error("manifest chained to wrong anchor validated")
	}
	// A ROA object is not a manifest.
	roaDER, err := org.IssueROA(rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateManifest(roaDER, ta.Cert, []*x509.Certificate{rir.Cert, org.Cert}); err == nil {
		t.Error("ROA accepted as manifest")
	}
}

func TestCRLIssueAndCheck(t *testing.T) {
	_, _, org := buildChain(t)
	crl, err := org.IssueCRL([]int64{5, 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := verifyCRL(crl, org.Cert)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		serial int64
		want   bool
	}{{5, true}, {9, true}, {6, false}} {
		if got := revoked(rl, big.NewInt(c.serial)); got != c.want {
			t.Errorf("revoked(%d) = %v, want %v", c.serial, got, c.want)
		}
	}
	// Wrong issuer fails signature check.
	other, err := NewTrustAnchor("other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verifyCRL(crl, other.Cert); err == nil {
		t.Error("CRL verified against the wrong issuer")
	}
	if _, err := verifyCRL([]byte("junk"), org.Cert); err == nil {
		t.Error("junk CRL parsed")
	}
}

// writeTestRepo builds a 2-ROA signed repository and returns its dir.
func writeTestRepo(t *testing.T) (string, *Repository) {
	t.Helper()
	dir := t.TempDir()
	repo, err := NewRepository("MFT TA")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := repo.AddCA("MFT CA", []string{"168.122.0.0/16", "87.254.32.0/19"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rpki.ROA{
		{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("168.122.0.0/16"), MaxLength: 16}}},
		{AS: 31283, Prefixes: []rpki.ROAPrefix{{Prefix: mp("87.254.32.0/19"), MaxLength: 19}}},
	} {
		if err := repo.PublishROA(ca, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Write(dir); err != nil {
		t.Fatal(err)
	}
	return dir, repo
}

func TestScanWithManifest(t *testing.T) {
	dir, _ := writeTestRepo(t)
	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest == nil {
		t.Fatal("manifest not picked up")
	}
	if len(res.ROAs) != 2 || len(res.Rejected) != 0 {
		t.Fatalf("ROAs=%d rejected=%v", len(res.ROAs), res.Rejected)
	}
	if len(res.MissingFromDisk) != 0 || len(res.NotInManifest) != 0 {
		t.Fatalf("spurious manifest discrepancies: %v / %v", res.MissingFromDisk, res.NotInManifest)
	}
}

func TestScanDetectsUnlistedObject(t *testing.T) {
	dir, repo := writeTestRepo(t)
	// Adversary drops in a validly signed but unlisted object.
	extra, err := repo.CAs[0].IssueROA(rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 24}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sneaky.roa"), extra, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ROAs) != 2 {
		t.Fatalf("accepted %d ROAs, want 2 (the unlisted one rejected)", len(res.ROAs))
	}
	if len(res.NotInManifest) != 1 || res.NotInManifest[0] != "sneaky.roa" {
		t.Fatalf("NotInManifest = %v", res.NotInManifest)
	}
}

func TestScanDetectsSubstitutedObject(t *testing.T) {
	dir, repo := writeTestRepo(t)
	// Substitute a listed object with different (even validly signed) bytes.
	other, err := repo.CAs[0].IssueROA(rpki.ROA{AS: 31283, Prefixes: []rpki.ROAPrefix{
		{Prefix: mp("87.254.32.0/19"), MaxLength: 24}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "roa00001.roa"), other, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ROAs) != 1 {
		t.Fatalf("accepted %d ROAs, want 1", len(res.ROAs))
	}
	if len(res.MissingFromDisk) != 1 {
		t.Fatalf("MissingFromDisk = %v", res.MissingFromDisk)
	}
}

func TestScanDetectsDeletedObject(t *testing.T) {
	dir, _ := writeTestRepo(t)
	if err := os.Remove(filepath.Join(dir, "roa00000.roa")); err != nil {
		t.Fatal(err)
	}
	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissingFromDisk) != 1 || res.MissingFromDisk[0] != "roa00000.roa" {
		t.Fatalf("MissingFromDisk = %v", res.MissingFromDisk)
	}
	if len(res.ROAs) != 1 {
		t.Fatalf("ROAs = %d, want the surviving one", len(res.ROAs))
	}
}

func TestScanRejectsRevokedROA(t *testing.T) {
	dir := t.TempDir()
	repo, err := NewRepository("CRL TA")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := repo.AddCA("CRL CA", []string{"168.122.0.0/16"})
	if err != nil {
		t.Fatal(err)
	}
	roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("168.122.0.0/16"), MaxLength: 16}}}
	if err := repo.PublishROA(ca, roa); err != nil {
		t.Fatal(err)
	}
	// Find the EE serial of the published object and revoke it.
	obj, err := ParseSignedObject(repo.ROAs[0])
	if err != nil {
		t.Fatal(err)
	}
	repo.Revoked = []int64{obj.EECert.SerialNumber.Int64()}
	if err := repo.Write(dir); err != nil {
		t.Fatal(err)
	}
	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ROAs) != 0 {
		t.Fatalf("revoked ROA accepted: %v", res.ROAs)
	}
	if len(res.Rejected) != 1 {
		t.Fatalf("Rejected = %v", res.Rejected)
	}
}

// TestScanRejectsCorruptCRL flips one byte of a published CRL's signature: a
// CRL that does not verify must fail the scan, as a bad manifest does, not
// quietly revoke nothing.
func TestScanRejectsCorruptCRL(t *testing.T) {
	dir, _ := writeTestRepo(t)
	path := filepath.Join(dir, "ca.crl")
	crl, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crl[len(crl)-1] ^= 0x01
	if err := os.WriteFile(path, crl, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := ScanROAs(dir); err == nil {
		t.Fatalf("scan with a corrupt CRL accepted %d ROAs", len(res.ROAs))
	}
}

// TestValidateManifestChecksResources widens a CA's holdings after its
// certificate was issued, so the manifest EE it signs next claims space the
// CA certificate lacks: the chain's signatures verify, its resources do not.
func TestValidateManifestChecksResources(t *testing.T) {
	ta, rir, org := buildChain(t)
	org.Resources = append(org.Resources, mp("168.123.0.0/16"))
	der, err := org.IssueManifest(Manifest{
		Number:     1,
		ThisUpdate: time.Now().Add(-time.Hour),
		NextUpdate: time.Now().Add(time.Hour),
		Files:      map[string][32]byte{"a.roa": {9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateManifest(der, ta.Cert, []*x509.Certificate{rir.Cert, org.Cert}); err == nil {
		t.Error("manifest whose EE overclaims its CA's resources validated")
	}
}

// TestScanRejectsRevokedBigSerial revokes a ROA whose EE serial does not fit
// an int64: revocation compares serials as the integers they are.
func TestScanRejectsRevokedBigSerial(t *testing.T) {
	dir := t.TempDir()
	repo, err := NewRepository("CRL TA")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := repo.AddCA("CRL CA", []string{"168.122.0.0/16"})
	if err != nil {
		t.Fatal(err)
	}
	serial := new(big.Int).Lsh(big.NewInt(1), 70)
	roa := rpki.ROA{AS: 111, Prefixes: []rpki.ROAPrefix{{Prefix: mp("168.122.0.0/16"), MaxLength: 16}}}
	repo.ROAs = append(repo.ROAs, signWithEE(t, ca, roa, []prefix.Prefix{mp("168.122.0.0/16")}, serial))
	if err := repo.Write(dir); err != nil {
		t.Fatal(err)
	}
	crl, err := x509.CreateRevocationList(rand.Reader, &x509.RevocationList{
		Number:                    big.NewInt(2),
		ThisUpdate:                time.Now().Add(-time.Hour),
		NextUpdate:                time.Now().Add(time.Hour),
		RevokedCertificateEntries: []x509.RevocationListEntry{{SerialNumber: serial, RevocationTime: time.Now()}},
	}, ca.Cert, ca.Key)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ca.crl"), crl, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ScanROAs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ROAs) != 0 || len(res.Rejected) != 1 {
		t.Fatalf("ROA revoked at serial 2^70: accepted %v, rejected %v", res.ROAs, res.Rejected)
	}
}
