package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// header is the environment a result file opens with. -compare refuses to
// set two files side by side when CPUs, GOMAXPROCS, GoVersion or Seed differ.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUs       int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke"`
	Network    string  `json:"network"`
	When       string  `json:"when"`
}

const loopbackNote = "all sockets are the host's loopback interface (127.0.0.1); no real link was crossed"

func newHeader(cfg config) header {
	return header{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: procs,
		CPUModel:   cpuModel(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.trace,
		Smoke:      cfg.smoke,
		Network:    loopbackNote,
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the commit under test, or "unknown" where the checkout is
// not a git repository (the driver's copy is not).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// residentMiB is this process's resident set right now, from
// /proc/self/statm; 0 where /proc is unavailable.
func residentMiB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssWatch tracks the peak resident set from the end of set-up on. The
// kernel's own high-water mark (VmHWM) cannot serve: it would mostly
// record the garbage of generating the inputs, which is the harness's cost
// and not the system's. Set-up's freed memory is handed back to the OS
// first, then the resident set is sampled every 20 ms — heap growth is far
// slower than that — until stop returns the largest reading.
type rssWatch struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
	peak float64 // written by the sampler; read after done is closed
}

func watchRSS() *rssWatch {
	debug.FreeOSMemory()
	w := &rssWatch{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			w.peak = max(w.peak, residentMiB())
			select {
			case <-tick.C:
			case <-w.quit:
				return
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the peak in MiB; it may be called
// more than once.
func (w *rssWatch) stop() float64 {
	w.once.Do(func() { close(w.quit) })
	<-w.done
	return max(w.peak, residentMiB())
}

// cpuSeconds is the user+system CPU time this process has consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAfterGC collects twice — the second cycle frees what finalizers and
// sync.Pool victims of the first released — and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// readTotalAlloc is the cumulative bytes the Go heap has handed out.
func readTotalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runtimeMark is a point-in-time reading of the Go runtime and process
// clocks; since() turns two of them into the go.* and proc.* metrics of the
// interval between.
type runtimeMark struct {
	at       time.Time
	cpu      float64
	gcCycles uint32
	pauseNs  uint64
	allocB   uint64
}

func markRuntime() runtimeMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeMark{at: time.Now(), cpu: cpuSeconds(), gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs, allocB: ms.TotalAlloc}
}

// since reports the go.* and proc.cpu_busy_share metrics for the interval
// from m to now into rep.
func (m runtimeMark) since(rep *report) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	wall := time.Since(m.at).Seconds()
	rep.layer("go.gc_cycles", float64(ms.NumGC-m.gcCycles))
	rep.layer("go.gc_pause_ms", float64(ms.PauseTotalNs-m.pauseNs)/1e6)
	rep.layer("go.alloc_mb", float64(ms.TotalAlloc-m.allocB)/(1<<20))
	rep.layer("go.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
	if wall > 0 {
		rep.layer("proc.cpu_busy_share", (cpuSeconds()-m.cpu)/(wall*procs))
	}
}
