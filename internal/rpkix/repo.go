package rpkix

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/pem"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// Repository layout on disk, mirroring an RPKI publication point:
//
//	<dir>/ta.cer           trust anchor certificate (PEM)
//	<dir>/<name>.cer       CA certificates (PEM)
//	<dir>/<name>.roa       signed ROA objects (DER)
//
// (*Repository).Write publishes, ScanROAs plays the relying party: validate
// everything, collect VRPs — the scan_roas role of §7.1.

// Repository is an in-memory publication point.
type Repository struct {
	TA      *Authority
	CAs     []*Authority
	ROAs    [][]byte // DER signed objects
	Revoked []int64  // revoked EE certificate serials, published in the CRL
}

// NewRepository creates a publication point with a fresh trust anchor.
func NewRepository(taName string) (*Repository, error) {
	ta, err := NewTrustAnchor(taName)
	if err != nil {
		return nil, err
	}
	return &Repository{TA: ta}, nil
}

// AddCA issues a subordinate CA under the trust anchor.
func (r *Repository) AddCA(name string, resources []string) (*Authority, error) {
	ps, err := parsePrefixes(resources)
	if err != nil {
		return nil, err
	}
	ca, err := r.TA.NewChild(name, ps)
	if err != nil {
		return nil, err
	}
	r.CAs = append(r.CAs, ca)
	return ca, nil
}

// PublishROA signs the ROA under the given CA and stores the object.
func (r *Repository) PublishROA(ca *Authority, roa rpki.ROA) error {
	der, err := ca.IssueROA(roa)
	if err != nil {
		return err
	}
	r.ROAs = append(r.ROAs, der)
	return nil
}

// Write serializes the repository to a directory, including a signed
// manifest (manifest.mft) inventorying every published object and a CRL
// (ca.crl) from the first CA (or the TA when no CA exists).
func (r *Repository) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writePEMCert(filepath.Join(dir, "ta.cer"), r.TA.Cert); err != nil {
		return err
	}
	for i, ca := range r.CAs {
		if err := writePEMCert(filepath.Join(dir, fmt.Sprintf("ca%04d.cer", i)), ca.Cert); err != nil {
			return err
		}
	}
	mft := Manifest{
		Number:     1,
		ThisUpdate: time.Now().Add(-time.Hour),
		NextUpdate: time.Now().Add(30 * 24 * time.Hour),
		Files:      make(map[string][32]byte, len(r.ROAs)),
	}
	for i, der := range r.ROAs {
		name := fmt.Sprintf("roa%05d.roa", i)
		if err := os.WriteFile(filepath.Join(dir, name), der, 0o644); err != nil {
			return err
		}
		mft.Files[name] = sha256.Sum256(der)
	}
	signer := r.TA
	if len(r.CAs) > 0 {
		signer = r.CAs[0]
	}
	mftDER, err := signer.IssueManifest(mft)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.mft"), mftDER, 0o644); err != nil {
		return err
	}
	crlDER, err := signer.IssueCRL(r.Revoked, 1)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "ca.crl"), crlDER, 0o644)
}

func writePEMCert(path string, cert *x509.Certificate) error {
	return os.WriteFile(path, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: cert.Raw}), 0o644)
}

func readPEMCert(path string) (*x509.Certificate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(raw)
	if block == nil || block.Type != "CERTIFICATE" {
		return nil, fmt.Errorf("rpkix: %s is not a PEM certificate", path)
	}
	return x509.ParseCertificate(block.Bytes)
}

// ScanResult reports a repository scan.
type ScanResult struct {
	ROAs     []rpki.ROA
	VRPs     *rpki.Set
	Rejected map[string]error // object file -> why it failed validation
	// Manifest is the validated inventory, when manifest.mft exists.
	Manifest *Manifest
	// MissingFromDisk lists manifest entries whose file is absent or whose
	// hash mismatches (possible deletion/substitution attack).
	MissingFromDisk []string
	// NotInManifest lists .roa files on disk the manifest does not vouch for.
	NotInManifest []string
}

// ScanROAs validates every .roa object in dir against the ta.cer trust
// anchor and all .cer intermediates, returning the validated ROAs and their
// VRP expansion. Invalid objects are recorded in Rejected, not fatal — a
// relying party must tolerate garbage in a publication point. When a
// manifest is present it is validated and cross-checked against the on-disk
// objects; when a CRL is present, it is verified, and ROAs whose EE
// certificate it revokes are rejected. A manifest or CRL that fails to
// verify fails the scan.
func ScanROAs(dir string) (*ScanResult, error) {
	ta, err := readPEMCert(filepath.Join(dir, "ta.cer"))
	if err != nil {
		return nil, fmt.Errorf("rpkix: loading trust anchor: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var certs []*x509.Certificate
	var roaFiles []string
	var mftDER, crlDER []byte
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == "ta.cer":
		case strings.HasSuffix(name, ".cer"):
			c, err := readPEMCert(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("rpkix: loading %s: %w", name, err)
			}
			certs = append(certs, c)
		case strings.HasSuffix(name, ".roa"):
			roaFiles = append(roaFiles, name)
		case strings.HasSuffix(name, ".mft"):
			if mftDER, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		case strings.HasSuffix(name, ".crl"):
			if crlDER, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		}
	}
	sort.Strings(roaFiles)
	res := &ScanResult{Rejected: make(map[string]error)}
	if mftDER != nil {
		m, err := ValidateManifest(mftDER, ta, certs)
		if err != nil {
			return nil, fmt.Errorf("rpkix: manifest: %w", err)
		}
		res.Manifest = &m
	}
	var crl *x509.RevocationList
	if crlDER != nil {
		issuer := ta
		if len(certs) > 0 {
			issuer = certs[0]
		}
		if crl, err = verifyCRL(crlDER, issuer); err != nil {
			return nil, err
		}
	}
	seen := make(map[string]bool, len(roaFiles))
	for _, name := range roaFiles {
		seen[name] = true
		der, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if res.Manifest != nil {
			want, listed := res.Manifest.Files[name]
			if !listed {
				res.NotInManifest = append(res.NotInManifest, name)
				res.Rejected[name] = fmt.Errorf("rpkix: %s not listed in the manifest", name)
				continue
			}
			if got := sha256.Sum256(der); !bytes.Equal(got[:], want[:]) {
				res.MissingFromDisk = append(res.MissingFromDisk, name)
				res.Rejected[name] = fmt.Errorf("rpkix: %s does not match its manifest hash", name)
				continue
			}
		}
		obj, err := ParseSignedObject(der)
		if err != nil {
			res.Rejected[name] = err
			continue
		}
		if crl != nil && revoked(crl, obj.EECert.SerialNumber) {
			res.Rejected[name] = fmt.Errorf("rpkix: %s EE certificate is revoked", name)
			continue
		}
		roa, err := validateROA(obj, ta, certs)
		if err != nil {
			res.Rejected[name] = err
			continue
		}
		res.ROAs = append(res.ROAs, roa)
	}
	if res.Manifest != nil {
		for name := range res.Manifest.Files {
			if !seen[name] {
				res.MissingFromDisk = append(res.MissingFromDisk, name)
			}
		}
		sort.Strings(res.MissingFromDisk)
	}
	res.VRPs = rpki.SetFromROAs(res.ROAs)
	return res, nil
}

func parsePrefixes(ss []string) ([]prefix.Prefix, error) {
	out := make([]prefix.Prefix, 0, len(ss))
	for _, s := range ss {
		p, err := prefix.Parse(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
