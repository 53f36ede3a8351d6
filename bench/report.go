package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// config is one workload run's settings, from the flags.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	setups   int // set-up repetitions; setup_s is their median
	nproc    int // the host's CPUs: the header, and the one probe that runs parallel
	outDir   string
	clk      *refClock // the end-to-end metrics' clock: see ref.go
	log      io.Writer // progress and failure reasons; never the result
}

func (c config) logf(format string, args ...interface{}) {
	fmt.Fprintf(c.log, "# "+format+"\n", args...)
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a workload run prints as its last line of standard
// output — the driver contract: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail rides on a "#detail" line before the result: the within-run
// spread and sample count of each metric, which the result line's fixed
// shape has no room for.
type detail struct {
	Spread  map[string]float64 `json:"spread"`
	Samples map[string]int     `json:"samples"`
	// The reference kernel's median over the run and its nominal time for
	// the workload (ref.go): their ratio is how slow the host was, which the
	// timed end-to-end metrics have been corrected for.
	RefKernelMs  float64 `json:"ref_kernel_ms"`
	RefNominalMs float64 `json:"ref_nominal_ms"`
}

// report collects what one workload run measured and checked.
type report struct {
	cfg       config
	spec      *spec
	attempted int64
	failed    int64
	values    map[string]float64
	detail    detail
}

func newReport(cfg config, sp *spec) *report {
	return &report{cfg: cfg, spec: sp, values: map[string]float64{},
		detail: detail{Spread: map[string]float64{}, Samples: map[string]int{}}}
}

// e2e records an end-to-end metric with its within-run spread and the
// number of samples behind it.
func (r *report) e2e(name string, v, spread float64, n int) {
	r.values[name] = v
	r.detail.Spread[name] = spread
	r.detail.Samples[name] = n
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64) { r.values[name] = v }

// attempt counts n operations attempted.
func (r *report) attempt(n int) { r.attempted += int64(n) }

// fail counts n attempted operations as failed and says why.
func (r *report) fail(n int, format string, args ...interface{}) {
	if n <= 0 {
		return
	}
	r.failed += int64(n)
	r.cfg.logf("FAIL ×%d: %s", n, fmt.Sprintf(format, args...))
}

// check counts one correctness check, failed unless ok.
func (r *report) check(ok bool, format string, args ...interface{}) {
	r.attempt(1)
	if !ok {
		r.fail(1, format, args...)
	}
}

// result assembles the contract object: every metric BENCHMARK.json lists
// for this trace mode, and no other. A per-layer metric this workload does
// not exercise reads 0 (the layer did no work here); a missing or
// non-finite end-to-end metric, or a recorded name BENCHMARK.json does not
// declare, is a harness bug and an error.
func (r *report) result() (result, error) {
	declared := map[string]bool{}
	for _, m := range r.spec.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range r.spec.PerLayer {
		declared[m.Name] = true
	}
	for name := range r.values {
		if !declared[name] {
			return result{}, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		}
	}
	if r.attempted < 1 {
		return result{}, fmt.Errorf("workload %s attempted nothing", r.cfg.workload)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.spec.metrics(r.cfg.trace) {
		v, ok := r.values[m.Name]
		if !ok && !r.cfg.trace {
			return result{}, fmt.Errorf("end-to-end metric %q was not measured on %s", m.Name, r.cfg.workload)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %q is not finite on %s", m.Name, r.cfg.workload)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// print writes the human-readable table, the #detail line and — last — the
// result line.
func (r *report) print(w io.Writer, res result) error {
	fmt.Fprintf(w, "workload %s  seed %d  %.0fs  trace %t  GOMAXPROCS %d\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, procs)
	fmt.Fprintf(w, "  %s\n", loopbackNote)
	for _, m := range r.spec.metrics(r.cfg.trace) {
		printMetric(w, m, res.Metrics[m.Name].Value, r.detail.Spread[m.Name], r.detail.Samples[m.Name], r.hasValue(m.Name))
	}
	share := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "  %-36s %14.6g %-8s (%d failed of %d attempted)\n", "fail_share", share, "ratio", res.Failed, res.Attempted)
	d, err := json.Marshal(r.detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "#detail %s\n", d)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func (r *report) hasValue(name string) bool { _, ok := r.values[name]; return ok }

func printMetric(w io.Writer, m metricSpec, v, spread float64, n int, measured bool) {
	if !measured {
		fmt.Fprintf(w, "  %-36s %14s %-8s (layer not exercised by this workload)\n", m.Name, "-", m.Unit)
		return
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-8s", m.Name, v, m.Unit)
	if n > 0 {
		fmt.Fprintf(w, " spread %.1f%%  n=%d", 100*spread, n)
	}
	fmt.Fprintln(w)
}

// workloadResult is one workload's entry in a result file. With -runs N
// each metric is the median of the N runs' values (all kept in Runs) and
// its spread is the run-to-run one: quartile distance over median.
type workloadResult struct {
	Name string `json:"name"`
	result
	detail
	Runs map[string][]float64 `json:"runs,omitempty"`
}

// mergeRuns folds one workload's runs into its result-file entry.
func mergeRuns(name string, results []result, details []detail) workloadResult {
	wr := workloadResult{Name: name, result: results[0], detail: details[0]}
	if len(results) == 1 {
		return wr
	}
	wr.Runs = map[string][]float64{}
	wr.Metrics = map[string]metricValue{}
	wr.Attempted, wr.Failed = 0, 0
	kernel := make([]float64, len(details))
	for i, d := range details {
		kernel[i] = d.RefKernelMs
	}
	wr.RefKernelMs = median(kernel)
	for i, res := range results {
		wr.Correct = wr.Correct && res.Correct
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		for m, v := range res.Metrics {
			wr.Runs[m] = append(wr.Runs[m], v.Value)
			if i == len(results)-1 {
				wr.Metrics[m] = metricValue{Value: median(wr.Runs[m]), Unit: v.Unit}
				wr.Spread[m] = quartileSpread(wr.Runs[m])
				wr.Samples[m] = len(wr.Runs[m])
			}
		}
	}
	return wr
}

// resultFile is bench/out/result-<n>.json.
type resultFile struct {
	Header    header           `json:"header"`
	Claim     *string          `json:"claim"` // always null: this instrument claims no gain
	Workloads []workloadResult `json:"workloads"`
}

// parseChildOutput extracts the result (last line) and the #detail line
// from a workload run's standard output.
func parseChildOutput(out string) (result, detail, error) {
	var res result
	var det detail
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, det, fmt.Errorf("last line is not a result object: %w", err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "#detail "); ok {
			if err := json.Unmarshal([]byte(rest), &det); err != nil {
				return res, det, fmt.Errorf("bad #detail line: %w", err)
			}
		}
	}
	return res, det, nil
}

// writeResultFile stores rf under the first free bench/out/result-<n>.json.
func writeResultFile(dir string, rf resultFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("result-%d.json", n))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, werr := f.Write(append(raw, '\n'))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return path, werr
	}
}
