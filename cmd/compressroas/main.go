// Command compressroas is the repository's drop-in equivalent of the
// paper's compress_roas utility (§7.1): it reads a list of (prefix,
// maxLength, ASN) tuples — from a VRP CSV or by cryptographically scanning a
// .roa repository directory — compresses it with Algorithm 1, and
// writes the compressed CSV. With -verify it proves the output authorizes
// exactly the same routes as the input. An -out file is replaced whole (written
// beside the destination, then renamed over it), so a cache that re-reads it
// on SIGHUP finds the previous table or the new one, never part of one.
//
// Usage:
//
//	compressroas [-in vrps.csv | -repo dir] [-out out.csv] [-mode strict|literal]
//	             [-subsume] [-verify] [-stats]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/rpki"
	"repro/internal/rpkix"
)

func main() {
	var (
		in      = flag.String("in", "", "input VRP CSV file ('-' for stdin)")
		repoDir = flag.String("repo", "", "scan a signed .roa repository directory instead of reading CSV")
		out     = flag.String("out", "-", "output CSV file ('-' for stdout)")
		mode    = flag.String("mode", "strict", "compression mode: strict (semantics-preserving) or literal (paper's Algorithm 1 verbatim)")
		subsume = flag.Bool("subsume", false, "also delete tuples subsumed by an ancestor tuple")
		verify  = flag.Bool("verify", true, "verify the output authorizes exactly the input's routes")
		stats   = flag.Bool("stats", false, "print compression statistics to stderr")
	)
	flag.Parse()
	if err := run(*in, *repoDir, *out, *mode, *subsume, *verify, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "compressroas:", err)
		os.Exit(1)
	}
}

func run(in, repoDir, out, mode string, subsume, verify, stats bool) error {
	set, err := load(in, repoDir)
	if err != nil {
		return err
	}
	opts := core.Options{Subsumption: subsume}
	switch mode {
	case "strict":
		opts.Mode = core.Strict
	case "literal":
		opts.Mode = core.Literal
	default:
		return fmt.Errorf("unknown -mode %q", mode)
	}
	start := time.Now()
	compressed, res := core.Compress(set, opts)
	compressTook, verifyTook := time.Since(start), time.Duration(0)
	if verify {
		start = time.Now()
		if err := core.VerifyCompression(set, compressed); err != nil {
			if opts.Mode == core.Literal {
				fmt.Fprintf(os.Stderr, "compressroas: WARNING (literal mode): %v\n", err)
			} else {
				return err
			}
		}
		verifyTook = time.Since(start)
	}
	if stats {
		fmt.Fprintf(os.Stderr, "compressroas: %d -> %d tuples (%.2f%% saved) %s; merged=%d subsumed=%d raised=%d groups=%d\n",
			res.In, res.Out, 100*res.SavedFraction(), timings(compressTook, verifyTook, verify),
			res.Merged, res.Subsumed, res.Raised, res.Groups)
	}
	return save(out, compressed)
}

// timings renders -stats's durations: the compression's and, when verify ran,
// the verification's, each to four significant digits, so a run under a
// millisecond shows its microseconds instead of 0s.
func timings(compress, verification time.Duration, verified bool) string {
	s := fmt.Sprintf("in %v", fourDigits(compress))
	if verified {
		s += fmt.Sprintf(", verified in %v", fourDigits(verification))
	}
	return s
}

// fourDigits rounds d to its four most significant decimal digits.
func fourDigits(d time.Duration) time.Duration {
	unit := time.Duration(1)
	for unit*10000 <= d {
		unit *= 10
	}
	return d.Round(unit)
}

func load(in, repoDir string) (*rpki.Set, error) {
	switch {
	case in != "" && repoDir != "":
		return nil, fmt.Errorf("-in and -repo are mutually exclusive")
	case repoDir != "":
		res, err := rpkix.ScanROAs(repoDir)
		if err != nil {
			return nil, err
		}
		for name, err := range res.Rejected {
			fmt.Fprintf(os.Stderr, "compressroas: rejected %s: %v\n", name, err)
		}
		return res.VRPs, nil
	case in == "-":
		return rpki.ReadCSV(os.Stdin)
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rpki.ReadCSV(f)
	default:
		return nil, fmt.Errorf("one of -in or -repo is required")
	}
}

// save writes set as CSV to out. A cache re-reads out on SIGHUP, and a CSV cut
// short at a line boundary still parses, so the table is written beside its
// destination and renamed over it only once it is whole and closed.
func save(out string, set *rpki.Set) error {
	if out == "-" {
		return rpki.WriteCSV(os.Stdout, set)
	}
	f, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp*")
	if err != nil {
		return err
	}
	// CreateTemp's 0600 would hide the table from a cache run by another user.
	err = errors.Join(f.Chmod(0o644), rpki.WriteCSV(f, set), f.Sync(), f.Close())
	if err == nil {
		err = os.Rename(f.Name(), out)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
