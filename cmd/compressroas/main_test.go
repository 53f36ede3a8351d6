package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rpki"
)

func testSet(t *testing.T) *rpki.Set {
	t.Helper()
	set, err := rpki.ReadCSV(strings.NewReader("prefix,maxlength,asn\n168.122.0.0/16,24,111\n2001:db8::/32,48,111\n"))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestLoadRefusesBothInputs pins the usage line's either-or: given both -in
// and -repo, load names the conflict instead of reading one and ignoring the
// other.
func TestLoadRefusesBothInputs(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "vrps.csv")
	if err := os.WriteFile(in, []byte("prefix,maxlength,asn\n168.122.0.0/16,24,111\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(in, dir); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("load with -in and -repo both set: err %v, want a mutually exclusive error", err)
	}
	if set, err := load(in, ""); err != nil || set.Len() != 1 {
		t.Fatalf("load with -in alone: %v VRPs, err %v", set, err)
	}
}

func TestSaveIntoMissingDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := save(filepath.Join(dir, "absent", "out.csv"), testSet(t)); err == nil {
		t.Fatal("save under a directory that does not exist returned nil")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed save left %v behind", entries)
	}
}

// TestSaveReplacesWhole pins what a cache re-reading the file depends on: the
// destination holds the old table or the new one, never a mix — a reader that
// opened it before the save still reads the old table to its end — and no
// temporary is left beside it.
func TestSaveReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	old := "prefix,maxlength,asn\n" + strings.Repeat("10.0.0.0/8,8,1\n", 1000)
	if err := os.WriteFile(out, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	reader, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	want := testSet(t)
	if err := save(out, want); err != nil {
		t.Fatal(err)
	}
	if seen, err := io.ReadAll(reader); err != nil || string(seen) != old {
		t.Fatalf("a reader of the old table saw %d of its %d bytes (err %v)", len(seen), len(old), err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := rpki.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("saved table holds %v, want %v", got.VRPs(), want.VRPs())
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 || entries[0].Name() != "out.csv" {
		t.Fatalf("directory holds %v, want out.csv alone", entries)
	}
}

// TestTimings pins -stats's durations to four significant digits: a run under
// a millisecond, as on a table of a few thousand VRPs, reads in microseconds
// instead of 0s, and a long run is not printed to the nanosecond.
func TestTimings(t *testing.T) {
	for _, c := range []struct {
		compress, verification time.Duration
		verified               bool
		want                   string
	}{
		{412345 * time.Nanosecond, 87654 * time.Nanosecond, true, "in 412.3µs, verified in 87.65µs"},
		{999 * time.Nanosecond, 0, false, "in 999ns"},
		{12345678 * time.Nanosecond, 1234567890 * time.Nanosecond, true, "in 12.35ms, verified in 1.235s"},
		{0, 0, true, "in 0s, verified in 0s"},
	} {
		if got := timings(c.compress, c.verification, c.verified); got != c.want {
			t.Errorf("timings(%v, %v, %v) = %q, want %q", c.compress, c.verification, c.verified, got, c.want)
		}
	}
}
