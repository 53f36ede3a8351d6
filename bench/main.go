// Command bench is the repository's benchmark: the paper's Figure 1 path —
// ROAs → trusted local cache (compress_roas) → RPKI-to-Router → router
// origin validation — as four named workloads, each measured from outside
// by timing calls into the packages' public functions. BENCHMARK.json at
// the repo root is its contract; bench/README.md explains every workload
// and metric.
//
// Usage (from the repo root):
//
//	go run ./bench                      all four workloads, each in a fresh child process
//	go run ./bench -runs 5              the same five times over: medians and run-to-run spreads
//	go run ./bench -trace 1             the traced runs: per-layer metrics and trace files
//	go run ./bench -workload cold_sync  one workload in this process; last stdout line is the result object
//	go run ./bench -smoke               all four, scaled to 2 %, ~1 s each, in this process
//	go run ./bench -compare a.json b.json
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// procs is the GOMAXPROCS of every workload run, and routers the number of
// routers a workload connects. Both are 1 on purpose: the sandbox lends the
// benchmark a few cores of a shared host, and with two Ps every hop of a
// publish → enforce chain is a cross-CPU wake-up whose cost is the host's (a
// halted vCPU has to be scheduled again) and not the program's — the same
// chain ran at 3,300/s ± 17 % on two Ps and 6,300/s ± 6 % on one. On one P
// the hand-offs are goroutine switches, the collector runs beside nothing,
// and what is timed is the code's own path.
const (
	procs   = 1
	routers = 1
)

// runners maps a workload's name to its implementation.
var runners = map[string]func(config, *report) error{
	"roa_change":     runRoaChange,
	"cold_sync":      runColdSync,
	"cache_refresh":  runCacheRefresh,
	"validate_churn": runValidateChurn,
}

func main() {
	var (
		cfg     = config{setups: 3, nproc: runtime.NumCPU(), log: os.Stderr}
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics, spans written to bench/out/trace-<workload>.json")
		runs    = flag.Int("runs", 1, "repeat every workload this many times; the result file then holds medians and run-to-run spreads")
		compare = flag.Bool("compare", false, "compare two result files given as arguments")
	)
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in-process and print its result object last (default: all four, one child process each)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; 1 is the paper-calibrated dataset")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json; 1 with -smoke)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "inputs scaled to 2 %, in-process: a quick check that the harness works, not a measurement")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for result and trace files")
	flag.Parse()
	if err := run(cfg, *trace, *runs, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg config, trace, runs int, compare bool, args []string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare takes exactly two result files")
		}
		return compareFiles(os.Stdout, sp, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if cfg.seed < 1 {
		return errors.New("-seed must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if runs < 1 {
		return errors.New("-runs must be at least 1")
	}
	if cfg.smoke {
		cfg.setups = 1
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(sp.RunSeconds)
		if cfg.smoke {
			cfg.seconds = 1
		}
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}

	if cfg.workload != "" {
		res, err := runWorkload(cfg, sp, os.Stdout)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", cfg.workload, res.Failed, res.Attempted)
		}
		return nil
	}
	return runAll(cfg, sp, runs)
}

// runWorkload runs cfg.workload in this process and prints its report.
func runWorkload(cfg config, sp *spec, w io.Writer) (result, error) {
	runner := runners[cfg.workload]
	if runner == nil || !sp.hasWorkload(cfg.workload) {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	clk, err := newRefClock(cfg.workload)
	if err != nil {
		return result{}, err
	}
	defer clk.close()
	cfg.clk = clk
	rep := newReport(cfg, sp)
	if err := runner(cfg, rep); err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.layer("bench.ref_kernel_ms", clk.kernelMs())
	rep.detail.RefKernelMs, rep.detail.RefNominalMs = clk.kernelMs(), clk.cal.nominalMs
	cfg.logf("%s: the reference kernel took a median %.4f ms over %d runs, %.2f × its nominal %.2f ms",
		cfg.workload, clk.kernelMs(), len(clk.samples), clk.kernelMs()/clk.cal.nominalMs, clk.cal.nominalMs)
	res, err := rep.result()
	if err != nil {
		return result{}, err
	}
	return res, rep.print(w, res)
}

// runAll runs every workload of BENCHMARK.json and writes a result file.
// Each workload gets a fresh child process of this same binary, so heap, GC
// state and peak RSS do not bleed from one into the next; -smoke stays in
// this process, where a test can call it.
func runAll(cfg config, sp *spec, runs int) error {
	rf := resultFile{Header: newHeader(cfg)}
	rf.Header.Runs = runs
	failed := 0
	results := map[string][]result{}
	details := map[string][]detail{}
	for run := 0; run < runs; run++ {
		for _, w := range sp.Workloads {
			wcfg := cfg
			wcfg.workload = w.Name
			var out bytes.Buffer
			var err error
			if cfg.smoke {
				_, err = runWorkload(wcfg, sp, io.MultiWriter(os.Stdout, &out))
			} else {
				err = runChild(wcfg, io.MultiWriter(os.Stdout, &out))
			}
			if out.Len() == 0 {
				return fmt.Errorf("%s printed no result: %w", w.Name, err)
			}
			res, det, perr := parseChildOutput(out.String())
			if perr != nil {
				return fmt.Errorf("%s: %w (run error: %v)", w.Name, perr, err)
			}
			if !res.Correct {
				failed++
			}
			results[w.Name] = append(results[w.Name], res)
			details[w.Name] = append(details[w.Name], det)
		}
	}
	for _, w := range sp.Workloads {
		rf.Workloads = append(rf.Workloads, mergeRuns(w.Name, results[w.Name], details[w.Name]))
	}
	path, err := writeResultFile(cfg.outDir, rf)
	if err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d workload run(s) failed their checks", failed)
	}
	return nil
}

// runChild runs one workload in a child process of this binary and waits
// for it. A child that ran but failed its checks still printed a result;
// the caller reads that, so only a child that could not run is an error
// worth more than its exit status.
func runChild(cfg config, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace,
		"-out", cfg.outDir)
	cmd.Stdout = stdout
	cmd.Stderr = os.Stderr
	return cmd.Run()
}
