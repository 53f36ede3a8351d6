package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden runs the whole pipeline and holds its text to the golden
// copy: every line the example prints is one it waited for, so two runs
// print the same bytes.
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/output.golden:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
