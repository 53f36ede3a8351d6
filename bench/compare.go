package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("parse %s: %w", path, err)
	}
	return rf, nil
}

// comparable refuses pairs of files whose numbers do not mean the same
// thing: another CPU count, GOMAXPROCS, Go version, seed, run length or
// trace mode.
func comparable(a, b header) error {
	switch {
	case a.CPUs != b.CPUs:
		return fmt.Errorf("CPU counts differ: %d vs %d", a.CPUs, b.CPUs)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differ: %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("Go versions differ: %s vs %s", a.GoVersion, b.GoVersion)
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Smoke != b.Smoke || a.Traced != b.Traced:
		return fmt.Errorf("run settings differ: %vs smoke=%t traced=%t vs %vs smoke=%t traced=%t",
			a.Seconds, a.Smoke, a.Traced, b.Seconds, b.Smoke, b.Traced)
	}
	return nil
}

// judge applies a metric's bound to one (metric, workload) pairing. change
// is how much worse new is, as a share of old. Worse by more than the bound
// is regressed; a spread wider than the bound on either side means the pair
// cannot tell, and says so instead of saying "unchanged".
func judge(m metricSpec, old, new, spreadOld, spreadNew float64) (change float64, status string) {
	if old != 0 {
		change = (new - old) / old
		if m.Better == "higher" {
			change = -change
		}
	}
	switch {
	case spreadOld > m.Bound || spreadNew > m.Bound:
		return change, "unresolved"
	case change > m.Bound:
		return change, "regressed"
	}
	return change, "ok"
}

// compareFiles prints one row per (end-to-end metric, workload) pairing
// and returns an error when any row regressed.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if err := comparable(a.Header, b.Header); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", pathA, pathB, err)
	}
	if a.Header.Traced {
		return fmt.Errorf("refusing to compare traced runs: end-to-end metrics come from untraced runs, and per-layer metrics have no bound")
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "old: %s (commit %s)\nnew: %s (commit %s)\n", pathA, a.Header.Commit, pathB, b.Header.Commit)
	fmt.Fprintf(w, "%-20s %-16s %14s %14s %9s %7s  %s\n", "metric", "workload", "old", "new", "change", "bound", "status")
	regressed := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		for _, m := range sp.EndToEnd {
			old, new := wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value
			change, status := judge(m, old, new, wa.Spread[m.Name], wb.Spread[m.Name])
			if status == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-20s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", m.Name, wa.Name, old, new, 100*change, 100*m.Bound, status)
		}
		if wb.Failed > wa.Failed {
			regressed++
			fmt.Fprintf(w, "%-20s %-16s %14d %14d %9s %7s  regressed\n", "failed", wa.Name, wa.Failed, wb.Failed, "", "0")
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairings regressed", regressed)
	}
	return nil
}
