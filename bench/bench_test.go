package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the parts of its contract a
// test can see: names, units, directions, bounds, and that the harness
// implements exactly the workloads it lists.
func TestBenchmarkJSON(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", sp.Paths)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", sp.RunSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 || n != len(runners) {
		t.Errorf("%d workloads declared, %d implemented", n, len(runners))
	}
	seen := map[string]bool{}
	once := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a valid name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range sp.Workloads {
		once("workload", w.Name)
		if runners[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, m := range sp.EndToEnd {
		once("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric "setup_s" with unit s, lower is better`)
	}
	for _, m := range sp.PerLayer {
		once("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not a valid unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on inputs scaled to
// 2 %, and asserts the contract on what comes out: every metric
// BENCHMARK.json names for that mode, once, finite, and every correctness
// check passing — so the benchmark cannot rot silently.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{
					workload: w.Name, seed: 1, seconds: 1, trace: traced, smoke: true,
					setups: 1, nproc: runtime.NumCPU(), outDir: t.TempDir(), log: testLog{t},
				}
				var out bytes.Buffer
				res, err := runWorkload(cfg, sp, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				checkOutput(t, sp, cfg, out.String(), res)
				if traced {
					checkTraceFile(t, filepath.Join(cfg.outDir, "trace-"+w.Name+".json"), w.Name)
				}
			})
		}
	}
}

// checkOutput asserts the printed report: the last line is the result
// object with exactly the contract's keys and this mode's metrics; each
// metric also appears once in the table above it.
func checkOutput(t *testing.T, sp *spec, cfg config, out string, res result) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(raw) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("result object has keys %v, want exactly correct, attempted, failed, metrics", keysOf(raw))
	}
	var printed map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["metrics"], &printed); err != nil {
		t.Fatal(err)
	}
	want := sp.metrics(cfg.trace)
	if len(printed) != len(want) {
		t.Errorf("%d metrics printed, %d declared for trace=%t", len(printed), len(want), cfg.trace)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		entry := printed[m.Name]
		if !ok || entry == nil {
			t.Errorf("metric %s was not emitted", m.Name)
			continue
		}
		if len(entry) != 2 || entry["value"] == nil || entry["unit"] == nil {
			t.Errorf("metric %s has keys %v, want exactly value and unit", m.Name, keysOf(entry))
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, declared %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, got.Value)
		}
		if !cfg.trace && got.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v; the contract wants it never 0", m.Name, got.Value)
		}
		rows := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) > 0 && f[0] == m.Name {
				rows++
			}
		}
		if rows != 1 {
			t.Errorf("metric %s has %d rows in the table, want 1", m.Name, rows)
		}
	}
	parsed, det, err := parseChildOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Attempted != res.Attempted || len(parsed.Metrics) != len(res.Metrics) {
		t.Errorf("parseChildOutput read back %+v, printed %+v", parsed, res)
	}
	if det.Samples["setup_s"] != cfg.setups {
		t.Errorf("#detail says setup_s rests on %d set-ups, ran %d", det.Samples["setup_s"], cfg.setups)
	}
}

func keysOf[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// checkTraceFile asserts the trace a traced run leaves behind is readable
// and self-consistent.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 {
		t.Fatalf("trace file names workload %q and holds %d spans", tf.Workload, len(tf.Spans))
	}
	ids := map[int64]bool{}
	for _, s := range tf.Spans {
		ids[s.ID] = true
	}
	for _, s := range tf.Spans {
		if s.EndNs < s.StartNs || s.Name == "" {
			t.Errorf("span %+v is malformed", s)
		}
		if s.Parent != -1 && !ids[s.Parent] {
			t.Errorf("span %d names parent %d, which the file does not hold", s.ID, s.Parent)
		}
	}
	for name, self := range tf.SelfNs {
		if self < 0 || self > tf.TotalNs[name] {
			t.Errorf("%s: self time %d outside [0, total %d]", name, self, tf.TotalNs[name])
		}
	}
}

// TestCompareFiles runs -compare end to end over two result files.
func TestCompareFiles(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mk := func(latency, spread float64, seed uint64) string {
		rf := resultFile{Header: header{CPUs: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seed: seed, Seconds: 12}}
		for _, w := range sp.Workloads {
			wr := workloadResult{Name: w.Name, result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}},
				detail: detail{Spread: map[string]float64{}, Samples: map[string]int{}}}
			for _, m := range sp.EndToEnd {
				wr.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit}
			}
			wr.Metrics["latency_p50_ms"] = metricValue{Value: latency, Unit: "ms"}
			wr.Spread["latency_p50_ms"] = spread
			rf.Workloads = append(rf.Workloads, wr)
		}
		path, err := writeResultFile(dir, rf)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := mk(100, 0.01, 1)
	var out bytes.Buffer
	if err := compareFiles(&out, sp, base, mk(104, 0.01, 1)); err != nil {
		t.Errorf("4 %% slower was reported as a regression: %v\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), " ok\n"); rows != len(sp.Workloads)*len(sp.EndToEnd) {
		t.Errorf("%d ok rows, want one per (metric, workload) pairing = %d\n%s", rows, len(sp.Workloads)*len(sp.EndToEnd), out.String())
	}
	out.Reset()
	if err := compareFiles(&out, sp, base, mk(150, 0.01, 1)); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("50 %% slower passed: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, sp, base, mk(150, 0.5, 1)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread of 50 %% should leave the pairing unresolved: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, sp, base, mk(100, 0.01, 2)); err == nil {
		t.Error("files from different seeds were compared")
	}
}
