package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
