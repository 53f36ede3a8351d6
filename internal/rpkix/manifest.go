package rpkix

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"slices"
	"time"

	"repro/internal/prefix"
)

// Manifests (RFC 6486-shaped) and CRLs complete the publication-point
// validation story: the manifest is a signed inventory of every object the
// CA currently publishes (file name + SHA-256), so a relying party can
// detect deleted or substituted objects; the CRL revokes EE certificates of
// withdrawn objects. The profile keeps RFC 6486's eContent structure with
// the same simplifications as the rest of the package (ECDSA, no
// signedAttrs).

var oidManifest = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 9, 16, 1, 26} // id-ct-rpkiManifest

// manifestASN1 mirrors RFC 6486 §4.2.1.
type manifestASN1 struct {
	Version        int `asn1:"optional,explicit,default:0,tag:0"`
	ManifestNumber int64
	ThisUpdate     time.Time `asn1:"generalized"`
	NextUpdate     time.Time `asn1:"generalized"`
	FileHashAlg    asn1.ObjectIdentifier
	FileList       []fileAndHash
}

type fileAndHash struct {
	File string `asn1:"ia5"`
	Hash asn1.BitString
}

// Manifest is the decoded inventory.
type Manifest struct {
	Number     int64
	ThisUpdate time.Time
	NextUpdate time.Time
	Files      map[string][32]byte // file name -> SHA-256
}

// EncodeManifestContent serializes a manifest eContent.
func EncodeManifestContent(m Manifest) ([]byte, error) {
	raw := manifestASN1{
		ManifestNumber: m.Number,
		ThisUpdate:     m.ThisUpdate.UTC().Truncate(time.Second),
		NextUpdate:     m.NextUpdate.UTC().Truncate(time.Second),
		FileHashAlg:    oidSHA256,
	}
	// Deterministic file order for reproducible objects.
	names := make([]string, 0, len(m.Files))
	for name := range m.Files {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		h := m.Files[name]
		raw.FileList = append(raw.FileList, fileAndHash{
			File: name,
			Hash: asn1.BitString{Bytes: h[:], BitLength: 256},
		})
	}
	return asn1.Marshal(raw)
}

// DecodeManifestContent parses a manifest eContent.
func DecodeManifestContent(der []byte) (Manifest, error) {
	var raw manifestASN1
	rest, err := asn1.Unmarshal(der, &raw)
	if err != nil {
		return Manifest{}, fmt.Errorf("rpkix: parsing manifest: %w", err)
	}
	if len(rest) != 0 {
		return Manifest{}, fmt.Errorf("rpkix: trailing bytes after manifest")
	}
	if !raw.FileHashAlg.Equal(oidSHA256) {
		return Manifest{}, fmt.Errorf("rpkix: manifest hash algorithm %v unsupported", raw.FileHashAlg)
	}
	m := Manifest{
		Number:     raw.ManifestNumber,
		ThisUpdate: raw.ThisUpdate,
		NextUpdate: raw.NextUpdate,
		Files:      make(map[string][32]byte, len(raw.FileList)),
	}
	for _, fh := range raw.FileList {
		if fh.Hash.BitLength != 256 {
			return Manifest{}, fmt.Errorf("rpkix: manifest hash for %q has %d bits", fh.File, fh.Hash.BitLength)
		}
		var h [32]byte
		copy(h[:], fh.Hash.Bytes)
		m.Files[fh.File] = h
	}
	return m, nil
}

// IssueManifest signs a manifest under the authority with a fresh EE
// certificate (the manifest EE carries the issuer's full resources).
func (a *Authority) IssueManifest(m Manifest) ([]byte, error) {
	eContent, err := EncodeManifestContent(m)
	if err != nil {
		return nil, err
	}
	eeKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	ext, err := EncodeIPResources(a.Resources)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(a.nextSerial()),
		Subject:         pkix.Name{CommonName: fmt.Sprintf("MFT-EE-%s", a.Cert.Subject.CommonName)},
		NotBefore:       time.Now().Add(-time.Hour),
		NotAfter:        time.Now().Add(30 * 24 * time.Hour),
		KeyUsage:        x509.KeyUsageDigitalSignature,
		ExtraExtensions: []pkix.Extension{ext},
		SubjectKeyId:    keyID(&eeKey.PublicKey),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, a.Cert, &eeKey.PublicKey, a.Key)
	if err != nil {
		return nil, err
	}
	eeCert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return signObject(oidManifest, eContent, eeCert, eeKey)
}

// ValidateManifest verifies a signed manifest object against the chain and
// returns the decoded inventory.
func ValidateManifest(der []byte, ta *x509.Certificate, intermediates []*x509.Certificate) (Manifest, error) {
	obj, err := ParseSignedObject(der)
	if err != nil {
		return Manifest{}, err
	}
	if !obj.EContentType.Equal(oidManifest) {
		return Manifest{}, fmt.Errorf("rpkix: eContentType %v is not a manifest", obj.EContentType)
	}
	if err := obj.VerifySignature(); err != nil {
		return Manifest{}, err
	}
	if _, err := verifyChain(obj.EECert, ta, intermediates); err != nil {
		return Manifest{}, err
	}
	m, err := DecodeManifestContent(obj.EContent)
	if err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// verifyChain is the chain check of every signed object: x509 verification
// of ee up to ta with the resource extension acknowledged, then RFC 3779
// containment along the verified chain — each certificate's resources lie
// within its issuer's. It returns the EE's resources.
func verifyChain(ee *x509.Certificate, ta *x509.Certificate, intermediates []*x509.Certificate) ([]prefix.Prefix, error) {
	roots := x509.NewCertPool()
	acknowledgeResources(ta)
	roots.AddCert(ta)
	pool := x509.NewCertPool()
	for _, c := range intermediates {
		acknowledgeResources(c)
		pool.AddCert(c)
	}
	acknowledgeResources(ee)
	chains, err := ee.Verify(x509.VerifyOptions{
		Roots:         roots,
		Intermediates: pool,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
	if err != nil {
		return nil, fmt.Errorf("rpkix: chain validation: %w", err)
	}
	eeRes, err := certResources(ee)
	if err != nil {
		return nil, err
	}
	need := eeRes
	for _, issuer := range chains[0][1:] {
		held, err := certResources(issuer)
		if err != nil {
			return nil, err
		}
		if !ResourcesContain(held, need) {
			return nil, fmt.Errorf("rpkix: %q does not hold the resources it certifies", issuer.Subject.CommonName)
		}
		need = held
	}
	return eeRes, nil
}

// IssueCRL signs a certificate revocation list over the given revoked
// serial numbers.
func (a *Authority) IssueCRL(revokedSerials []int64, number int64) ([]byte, error) {
	tmpl := &x509.RevocationList{
		Number:     big.NewInt(number),
		ThisUpdate: time.Now().Add(-time.Hour),
		NextUpdate: time.Now().Add(30 * 24 * time.Hour),
	}
	for _, s := range revokedSerials {
		tmpl.RevokedCertificateEntries = append(tmpl.RevokedCertificateEntries,
			x509.RevocationListEntry{SerialNumber: big.NewInt(s), RevocationTime: time.Now()})
	}
	return x509.CreateRevocationList(rand.Reader, tmpl, a.Cert, a.Key)
}

// verifyCRL parses a CRL and verifies its signature against the issuer.
func verifyCRL(crlDER []byte, issuer *x509.Certificate) (*x509.RevocationList, error) {
	rl, err := x509.ParseRevocationList(crlDER)
	if err != nil {
		return nil, fmt.Errorf("rpkix: parsing CRL: %w", err)
	}
	if err := rl.CheckSignatureFrom(issuer); err != nil {
		return nil, fmt.Errorf("rpkix: CRL signature: %w", err)
	}
	return rl, nil
}

// revoked reports whether a verified CRL lists serial.
func revoked(rl *x509.RevocationList, serial *big.Int) bool {
	for _, e := range rl.RevokedCertificateEntries {
		if e.SerialNumber.Cmp(serial) == 0 {
			return true
		}
	}
	return false
}

// signObject generalizes SignROA to any eContent type.
func signObject(contentType asn1.ObjectIdentifier, eContent []byte, eeCert *x509.Certificate, eeKey *ecdsa.PrivateKey) ([]byte, error) {
	digest := sha256.Sum256(eContent)
	sig, err := ecdsa.SignASN1(rand.Reader, eeKey, digest[:])
	if err != nil {
		return nil, fmt.Errorf("rpkix: signing: %w", err)
	}
	sd := signedData{
		Version:          3,
		DigestAlgorithms: []algorithmIdentifier{{Algorithm: oidSHA256}},
		EncapContentInfo: encapContentInfo{
			EContentType: contentType,
			EContent:     eContent,
		},
		Certificates: []asn1.RawValue{{FullBytes: eeCert.Raw}},
		SignerInfos: []signerInfo{{
			Version:            3,
			SubjectKeyID:       eeCert.SubjectKeyId,
			DigestAlgorithm:    algorithmIdentifier{Algorithm: oidSHA256},
			SignatureAlgorithm: algorithmIdentifier{Algorithm: oidECDSAWithSHA256},
			Signature:          sig,
		}},
	}
	return asn1.Marshal(contentInfo{ContentType: oidSignedData, Content: sd})
}
