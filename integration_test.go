package repro

import (
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
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

	// 5. rtrcache + rtrclient over loopback. The cache logs to a file, not a
	// buffer, so that step 5b can watch the log while the cache runs.
	addr := freeAddr(t)
	cache := exec.Command(filepath.Join(bin, "rtrcache"), "-vrps", compressed, "-listen", addr, "-compress")
	cacheLogPath := filepath.Join(data, "rtrcache.log")
	cacheLog, err := os.Create(cacheLogPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cacheLog.Close()
	cache.Stderr = cacheLog
	if err := cache.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cache.Process.Kill()
		cache.Wait()
	}()
	waitForListen(t, addr)
	// syncOnce is one router's cold start: a fresh rtrclient, the table it printed.
	syncOnce := func() string {
		t.Helper()
		client := exec.Command(filepath.Join(bin, "rtrclient"), "-cache", addr)
		var clientOut, clientErr bytes.Buffer
		client.Stdout, client.Stderr = &clientOut, &clientErr
		if err := client.Run(); err != nil {
			t.Fatalf("rtrclient: %v\nstderr: %s\ncache log: %s", err, clientErr.String(), readFile(t, cacheLogPath))
		}
		return clientOut.String()
	}
	table := syncOnce()
	if synced := strings.Count(table, "\n") - 1; synced <= 0 { // minus header
		t.Fatalf("router synced %d VRPs:\n%s", synced, table)
	}

	// 5b. The refresh path: the operator's pipeline replaces the CSV through
	// compressroas -out and signals the cache, which re-reads, compresses,
	// verifies and publishes; a file it cannot parse is refused and the table
	// in service kept. The new VRPs have an origin of their own (AS64500), so
	// compression leaves them as they are whatever the snapshot holds.
	first, second := "198.18.0.0/20,20,64500\n", "198.18.16.0/20,24,64500\n"
	publish := func(extra string) {
		t.Helper()
		next := filepath.Join(data, "next.csv")
		if err := os.WriteFile(next, []byte(readFile(t, vrpPath)+extra), 0o644); err != nil {
			t.Fatal(err)
		}
		run(t, bin, "compressroas", "-in", next, "-out", compressed)
		if err := cache.Process.Signal(syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	// await polls until cond holds of what get returns, for at most 10 s.
	await := func(what string, get func() string, cond func(string) bool) string {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if got := get(); cond(got) {
				return got
			} else if time.Now().After(deadline) {
				t.Fatalf("%s: not within 10 s; last read:\n%s\ncache log:\n%s", what, got, readFile(t, cacheLogPath))
			}
		}
	}
	holds := func(line string) func(string) bool {
		return func(table string) bool { return strings.Contains(table, "\n"+line) }
	}
	publish(first)
	table = await("first reload reaches a router", syncOnce, holds(first))

	if err := os.WriteFile(compressed, []byte("prefix,maxlength,asn\nnot a VRP\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cache.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	await("refused reload is logged", func() string { return readFile(t, cacheLogPath) },
		func(log string) bool { return strings.Contains(log, "reload failed") })
	if got := syncOnce(); got != table {
		t.Fatalf("table after a refused reload:\n%s\nwant the one in service before it:\n%s", got, table)
	}

	publish(first + second)
	if table = await("reload after a refused one reaches a router", syncOnce, holds(second)); !holds(first)(table) {
		t.Fatalf("second reload lost the first one's VRP:\n%s", table)
	}
	cache.Process.Kill()
	cache.Wait()
	if log := readFile(t, cacheLogPath); strings.Count(log, "reload failed") != 1 {
		t.Fatalf("cache log, want one refused reload between the two it served:\n%s", log)
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

func readFile(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	return strings.Count(readFile(t, path), "\n")
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
