// Command benchjson converts `go test -bench` text output into a JSON
// array, one object per benchmark result, so benchmark runs can be
// committed and diffed in-repo (make bench writes BENCH_PR<N>.json with it).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | benchjson -out BENCH.json
//	benchjson -in bench.out -out BENCH.json
//	benchjson -diff [-threshold 15] old.json new.json
//
// Standard fields (ns/op, B/op, allocs/op) get their own keys; any extra
// b.ReportMetric units land in "metrics". Lines that are not benchmark
// results (pkg:, cpu:, PASS, ...) are skipped, except that pkg: lines set
// the "package" of subsequent results. benchjson exits nonzero when the
// input contains no benchmark results at all.
//
// With -diff, benchjson instead compares two archived runs (the files make
// bench writes) and prints a per-benchmark delta table for ns/op, B/op, and
// allocs/op — the in-repo perf trend across PRs, `make bench-diff`. When
// -threshold is positive, any benchmark whose ns/op, B/op, or allocs/op
// regressed by more than that percentage makes benchjson exit 1, so the
// diff doubles as a CI gate. The per-metric flags -threshold-ns,
// -threshold-bytes, and -threshold-allocs override the shared threshold for
// one metric (0 disables that metric's gate): wall-clock numbers need a
// generous threshold on noisy hardware, while allocation metrics are exact
// and can be gated tightly. The exception is benchmarks whose allocation
// profile is itself scheduler-dependent (the live-index delta benches
// amortizing background compaction): list those with -mem-noisy to gate
// their memory metrics at the wall-clock threshold.
// Benchmarks whose timed loop couples to background work (the live index's
// asynchronous compactor amortizing O(table) rebuilds into the window) swing
// even further on identical code: list those with -time-noisy and set
// -threshold-time-noisy to give their ns/op the extra headroom.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path"
	"strconv"
	"strings"
)

type result struct {
	Package     string             `json:"package,omitempty"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     *float64           `json:"ns_per_op,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	inPath := flag.String("in", "", "input file (default stdin)")
	outPath := flag.String("out", "", "output file (default stdout)")
	diffMode := flag.Bool("diff", false, "compare two archived runs: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 0, "with -diff: exit 1 when any ns/op, B/op, or allocs/op regression exceeds this percentage (0 disables the gate)")
	thresholdNs := flag.Float64("threshold-ns", -1, "with -diff: per-metric override of -threshold for ns/op (-1 inherits, 0 disables)")
	thresholdBytes := flag.Float64("threshold-bytes", -1, "with -diff: per-metric override of -threshold for B/op (-1 inherits, 0 disables)")
	thresholdAllocs := flag.Float64("threshold-allocs", -1, "with -diff: per-metric override of -threshold for allocs/op (-1 inherits, 0 disables)")
	memNoisy := flag.String("mem-noisy", "", "with -diff: comma-separated glob patterns of package-qualified benchmarks whose B/op and allocs/op are scheduler-dependent; they are gated at the ns/op threshold instead of the memory one")
	timeNoisy := flag.String("time-noisy", "", "with -diff: comma-separated glob patterns of package-qualified benchmarks whose ns/op is scheduler-dependent; they are gated at -threshold-time-noisy instead of the ns/op threshold")
	thresholdTimeNoisy := flag.Float64("threshold-time-noisy", -1, "with -diff: ns/op threshold for -time-noisy benchmarks (-1 inherits the ns/op threshold, 0 disables)")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			log.Fatal("-diff needs exactly two arguments: old.json new.json")
		}
		old, err := loadResults(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := loadResults(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		memMatcher, err := globMatcher("-mem-noisy", *memNoisy)
		if err != nil {
			log.Fatal(err)
		}
		timeMatcher, err := globMatcher("-time-noisy", *timeNoisy)
		if err != nil {
			log.Fatal(err)
		}
		rows, worst := diffResults(old, cur, memMatcher, timeMatcher)
		printDiff(os.Stdout, flag.Arg(0), flag.Arg(1), rows)
		failures := gateFailures(worst, *threshold, *thresholdNs, *thresholdBytes, *thresholdAllocs, *thresholdTimeNoisy)
		for _, f := range failures {
			log.Print(f)
		}
		if len(failures) > 0 {
			os.Exit(1)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	results, err := parse(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark results in input")
	}
	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchjson: wrote %d results to %s\n", len(results), *outPath)
}

func parse(in io.Reader) ([]result, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []result
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if p, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo --- FAIL"
		}
		r := result{Package: pkg, Name: trimProcs(fields[0]), Iterations: iters}
		// The tail is (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			val := v
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = &val
			case "B/op":
				r.BytesPerOp = &val
			case "allocs/op":
				r.AllocsPerOp = &val
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = val
			}
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// globMatcher compiles a noisy-benchmark flag (comma-separated path.Match
// patterns against the package-qualified benchmark key) into a predicate;
// an empty flag yields nil (no benchmark matches).
func globMatcher(flagName, flagValue string) (func(key string) bool, error) {
	var pats []string
	for _, p := range strings.Split(flagValue, ",") {
		if p = strings.TrimSpace(p); p != "" {
			if _, err := path.Match(p, "probe"); err != nil {
				return nil, fmt.Errorf("%s pattern %q: %v", flagName, p, err)
			}
			pats = append(pats, p)
		}
	}
	if len(pats) == 0 {
		return nil, nil
	}
	return func(key string) bool {
		for _, p := range pats {
			if ok, _ := path.Match(p, key); ok {
				return true
			}
		}
		return false
	}, nil
}

// trimProcs drops the -GOMAXPROCS suffix go test appends to benchmark names.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
