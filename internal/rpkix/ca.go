package rpkix

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"time"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// Authority is a certification authority in the simplified RPKI hierarchy:
// the trust anchor (self-signed, all resources) or a subordinate CA (an RIR
// or an address holder). Authorities issue subordinate CAs and per-ROA EE
// certificates, enforcing the RFC 6487 resource-containment invariant at
// issuance time; ValidateROA re-checks it at relying-party time.
type Authority struct {
	Cert      *x509.Certificate
	Key       *ecdsa.PrivateKey
	Resources []prefix.Prefix

	serial int64
}

// NewTrustAnchor creates a self-signed trust anchor holding all address
// space.
func NewTrustAnchor(name string) (*Authority, error) {
	return newAuthority(nil, name, AllResources())
}

// NewChild issues a subordinate CA certificate for the given resources,
// which must be contained in the parent's.
func (a *Authority) NewChild(name string, resources []prefix.Prefix) (*Authority, error) {
	if !ResourcesContain(a.Resources, resources) {
		return nil, fmt.Errorf("rpkix: child resources exceed %q's holdings", a.Cert.Subject.CommonName)
	}
	return newAuthority(a, name, resources)
}

func newAuthority(parent *Authority, name string, resources []prefix.Prefix) (*Authority, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	ext, err := EncodeIPResources(resources)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
		ExtraExtensions:       []pkix.Extension{ext},
		SubjectKeyId:          keyID(&key.PublicKey),
	}
	signerCert, signerKey := tmpl, key // self-signed trust anchor
	if parent != nil {
		tmpl.SerialNumber = big.NewInt(parent.nextSerial())
		signerCert, signerKey = parent.Cert, parent.Key
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, signerCert, &key.PublicKey, signerKey)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Authority{Cert: cert, Key: key, Resources: resources}, nil
}

func (a *Authority) nextSerial() int64 {
	a.serial++
	return a.serial + 1
}

// keyID derives a SubjectKeyIdentifier from the public key, per RFC 7093
// method 1 (SHA-256 truncated).
func keyID(pub *ecdsa.PublicKey) []byte {
	h := sha256.Sum256(elliptic.Marshal(pub.Curve, pub.X, pub.Y))
	return h[:20]
}

// IssueROA creates the complete signed object for a ROA: a one-off EE
// certificate holding exactly the ROA's prefixes, and the CMS envelope over
// the RFC 6482 eContent. It returns the DER object.
func (a *Authority) IssueROA(r rpki.ROA) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	need := make([]prefix.Prefix, 0, len(r.Prefixes))
	for _, rp := range r.Prefixes {
		need = append(need, rp.Prefix)
	}
	if !ResourcesContain(a.Resources, need) {
		return nil, fmt.Errorf("rpkix: ROA for %s exceeds issuer resources", r.AS)
	}
	eeKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	ext, err := EncodeIPResources(need)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:    big.NewInt(a.nextSerial()),
		Subject:         pkix.Name{CommonName: fmt.Sprintf("ROA-EE-%s", r.AS)},
		NotBefore:       time.Now().Add(-time.Hour),
		NotAfter:        time.Now().Add(18 * 30 * 24 * time.Hour),
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
	eContent, err := EncodeROAContent(r)
	if err != nil {
		return nil, err
	}
	return SignROA(eContent, eeCert, eeKey)
}

// ValidateROA performs relying-party validation of a DER signed object
// against the chain ta → intermediates → EE: CMS parse, signature check,
// X.509 chain verification with resource containment at every step
// (verifyChain), eContent type/consistency checks, and the EE's coverage of
// the ROA's prefixes. On success it returns the ROA.
func ValidateROA(der []byte, ta *x509.Certificate, intermediates []*x509.Certificate) (rpki.ROA, error) {
	obj, err := ParseSignedObject(der)
	if err != nil {
		return rpki.ROA{}, err
	}
	return validateROA(obj, ta, intermediates)
}

// validateROA is ValidateROA past the CMS parse, for a caller that has
// already parsed the object: ScanROAs checks its EE certificate against the
// CRL first.
func validateROA(obj *SignedObject, ta *x509.Certificate, intermediates []*x509.Certificate) (rpki.ROA, error) {
	if !obj.EContentType.Equal(oidRouteOriginAttestation) {
		return rpki.ROA{}, fmt.Errorf("rpkix: eContentType %v is not a ROA", obj.EContentType)
	}
	if err := obj.VerifySignature(); err != nil {
		return rpki.ROA{}, err
	}
	held, err := verifyChain(obj.EECert, ta, intermediates)
	if err != nil {
		return rpki.ROA{}, err
	}
	r, err := DecodeROAContent(obj.EContent)
	if err != nil {
		return rpki.ROA{}, err
	}
	need := make([]prefix.Prefix, 0, len(r.Prefixes))
	for _, rp := range r.Prefixes {
		need = append(need, rp.Prefix)
	}
	if !ResourcesContain(held, need) {
		return rpki.ROA{}, fmt.Errorf("rpkix: %q does not hold the resources it certifies", obj.EECert.Subject.CommonName)
	}
	return r, nil
}

// acknowledgeResources removes id-pe-ipAddrBlocks from a certificate's
// unhandled-critical-extension list: the package validates resource
// containment itself, so crypto/x509's chain verification must not reject
// the (correctly critical, RFC 6487 §4.8.10) extension as unknown.
func acknowledgeResources(cert *x509.Certificate) {
	kept := cert.UnhandledCriticalExtensions[:0]
	for _, id := range cert.UnhandledCriticalExtensions {
		if !id.Equal(oidIPAddrBlocks) {
			kept = append(kept, id)
		}
	}
	cert.UnhandledCriticalExtensions = kept
}

// certResources extracts the RFC 3779 prefixes of a certificate.
func certResources(cert *x509.Certificate) ([]prefix.Prefix, error) {
	for _, ext := range cert.Extensions {
		if ext.Id.Equal(oidIPAddrBlocks) {
			return DecodeIPResources(ext)
		}
	}
	return nil, fmt.Errorf("rpkix: %q has no IP resources extension", cert.Subject.CommonName)
}
