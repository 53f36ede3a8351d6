package repro

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIPipeline builds every binary and drives the full toolchain the
// README documents: generate a snapshot, scan it for vulnerabilities,
// compress it, advise an operator, serve it over RTR, and sync a router.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping CLI integration")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	data := t.TempDir()

	// 1. roagen: tiny calibrated snapshot + signed repository.
	out := run(t, bin, "roagen", "-date", "2017-06-01", "-outdir", data, "-scale", "0.002", "-sign-repo", "5")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("roagen output: %s", out)
	}
	bgpPath := filepath.Join(data, "bgp-20170601.txt")
	vrpPath := filepath.Join(data, "vrps-20170601.csv")
	for _, p := range []string{bgpPath, vrpPath, filepath.Join(data, "repo", "ta.cer"), filepath.Join(data, "repo", "manifest.mft")} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
	}

	// 1b. mrtconv, the on-ramp for RouteViews' RIB dumps: the BGP table goes
	// to MRT and back (step 2 scans both copies), and a timestamp the
	// 32-bit record header cannot hold is a usage error.
	mrtPath, backPath := filepath.Join(data, "rib.mrt"), filepath.Join(data, "bgp-roundtrip.txt")
	for _, conv := range [][3]string{{"-tomrt", bgpPath, mrtPath}, {"-totext", mrtPath, backPath}} {
		// mrtconv writes to standard output, and to standard error only when it fails.
		if err := os.WriteFile(conv[2], []byte(run(t, bin, "mrtconv", conv[0], conv[1])), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var exit *exec.ExitError
	if err := exec.Command(filepath.Join(bin, "mrtconv"), "-tomrt", bgpPath, "-timestamp", "4294967296").Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("mrtconv -timestamp 4294967296: %v, want exit status 2", err)
	}

	// 2. vulnscan: the calibrated share of vulnerable maxLength users, the
	// same from the table that went through MRT. The scans are compared,
	// not the dumps: a text dump may spell a route with or without its path.
	out = run(t, bin, "vulnscan", "-vrps", vrpPath, "-bgp", bgpPath, "-top", "3")
	if !strings.Contains(out, "vulnerable (non-minimal)") {
		t.Fatalf("vulnscan output:\n%s", out)
	}
	if back := run(t, bin, "vulnscan", "-vrps", vrpPath, "-bgp", backPath, "-top", "3"); back != out {
		t.Fatalf("vulnscan on the MRT round-tripped table:\n%s\nwant what it printed for the original:\n%s", back, out)
	}

	// 3. compressroas with -verify (default) and -stats.
	compressed := filepath.Join(data, "compressed.csv")
	out = run(t, bin, "compressroas", "-in", vrpPath, "-out", compressed, "-stats")
	if !strings.Contains(out, "saved") {
		t.Fatalf("compressroas stats missing:\n%s", out)
	}
	inLines, outLines := countLines(t, vrpPath), countLines(t, compressed)
	if outLines >= inLines {
		t.Fatalf("compression did not shrink: %d -> %d lines", inLines, outLines)
	}

	// 3b. compressroas can also scan the signed repository directly.
	out = run(t, bin, "compressroas", "-repo", filepath.Join(data, "repo"), "-stats")
	if !strings.Contains(out, "prefix,maxlength,asn") {
		t.Fatalf("repo-mode output missing CSV header:\n%s", out)
	}

	// 4. roawizard advises a generated RPKI AS (1000 is the first ROA AS).
	out = run(t, bin, "roawizard", "-bgp", bgpPath, "-as", "AS1000")
	if !strings.Contains(out, "Suggested minimal ROA") || !strings.Contains(out, "WARNING") {
		t.Fatalf("roawizard output:\n%s", out)
	}

	// 5. rtrcache + rtrclient over loopback.
	addr := freeAddr(t)
	cache := exec.Command(filepath.Join(bin, "rtrcache"), "-vrps", compressed, "-listen", addr, "-compress")
	var cacheLog bytes.Buffer
	cache.Stderr = &cacheLog
	if err := cache.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cache.Process.Kill()
		cache.Wait()
	}()
	waitForListen(t, addr)
	client := exec.Command(filepath.Join(bin, "rtrclient"), "-cache", addr)
	var clientOut, clientErr bytes.Buffer
	client.Stdout, client.Stderr = &clientOut, &clientErr
	if err := client.Run(); err != nil {
		t.Fatalf("rtrclient: %v\nstderr: %s\ncache log: %s", err, clientErr.String(), cacheLog.String())
	}
	synced := strings.Count(clientOut.String(), "\n") - 1 // minus header
	if synced <= 0 {
		t.Fatalf("router synced %d VRPs:\n%s", synced, clientOut.String())
	}

	// 6. experiments at toy scale renders Table 1.
	out = run(t, bin, "experiments", "-table1", "-scale", "0.002")
	if !strings.Contains(out, "lower bound") {
		t.Fatalf("experiments output:\n%s", out)
	}
}

// run executes a built binary and returns combined output, failing the test
// on unexpected errors (roawizard exits 1 on findings by design).
func run(t *testing.T, bin, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		if name == "roawizard" {
			return string(out) // findings exit non-zero deliberately
		}
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(raw, []byte("\n"))
}

// freeAddr reserves an ephemeral loopback port and returns host:port. The
// port is released before use; the tiny race is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitForListen(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("cache never listened on %s", addr)
}

// TestExamplesRun executes every example main to completion — they are part
// of the public API surface and must not rot.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping examples")
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil || len(examples) < 4 {
		t.Fatalf("examples missing: %v (%v)", examples, err)
	}
	for _, dir := range examples {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			cmd := exec.Command("go", "run", "./"+dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s: %v\n%s", dir, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced no output", dir)
			}
		})
	}
}
