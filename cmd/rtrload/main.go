// Command rtrload is the router-population soak harness for the RTR cache
// server: one in-process cache under sustained churn, thousands of
// concurrent poller clients (each running the WaitNotify → Sync loop a real
// router runs), and optionally a population of wedged routers that connect,
// query, and never read. It exists to prove the publish path's isolation
// property at scale — UpdateSet latency must be a function of the table
// delta, not of the slowest router — and to put numbers on it:
//
//   - publish latency: wall time of each ApplyDelta call (queue handoff
//     and snapshot roll only; no router socket on this path)
//   - notify-to-sync latency: publish instant → a client finishing the
//     incremental Sync for that serial, measured per client per publish
//
// Usage:
//
//	rtrload [-clients 2000] [-duration 30s] [-vrps 50000] [-churn 64]
//	        [-interval 100ms] [-stall 0] [-write-timeout 5s] [-cpuprofile FILE]
//
// It exits non-zero when a poller dies mid-soak, when pollers were shed, or
// when fewer than -stall wedged routers were. make soak-smoke runs a small
// configuration in CI.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prefix"
	"repro/internal/rpki"
	"repro/internal/rtr"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtrload: ")
	var (
		clients    = flag.Int("clients", 2000, "concurrent poller clients")
		duration   = flag.Duration("duration", 30*time.Second, "churn phase length")
		vrps       = flag.Int("vrps", 50_000, "base table size")
		churn      = flag.Int("churn", 64, "VRPs announced or withdrawn per publish")
		interval   = flag.Duration("interval", 100*time.Millisecond, "publish interval")
		wtimeout   = flag.Duration("write-timeout", 5*time.Second, "server per-write deadline")
		stall      = flag.Int("stall", 0, "wedged routers: connect, query, never read")
		ramp       = flag.Int("ramp", 64, "concurrent dials while connecting the population")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the churn phase")
	)
	flag.Parse()
	if *clients < 1 || *vrps < 1 || *churn < 1 || *interval <= 0 || *duration <= 0 {
		log.Fatal("-clients, -vrps, -churn must be >= 1 and -interval, -duration positive")
	}

	srv := rtr.NewServer(baseTable(*vrps))
	srv.WriteTimeout = *wtimeout
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().String()

	// Connect the population, ramped so the accept queue and the full-table
	// responses don't all land in the same instant.
	log.Printf("connecting %d clients to %s (%d-VRP table)...", *clients, addr, *vrps)
	rampStart := time.Now()
	pop := make([]*rtr.Client, *clients)
	sem := make(chan struct{}, *ramp)
	var rampWG sync.WaitGroup
	var rampErr atomic.Pointer[error]
	for i := range pop {
		rampWG.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer rampWG.Done()
			defer func() { <-sem }()
			// A client can be shed mid-ramp by the server's own write
			// deadline when the CPU is saturated with concurrent full-table
			// transfers — a legitimate disconnect, so the harness redials.
			var err error
			for attempt := 0; attempt < 3; attempt++ {
				var c *rtr.Client
				c, err = rtr.Dial(addr)
				if err == nil {
					if err = c.Reset(); err == nil {
						pop[i] = c
						return
					}
					c.Close()
				}
			}
			err = fmt.Errorf("client %d: %w", i, err)
			rampErr.CompareAndSwap(nil, &err)
		}(i)
	}
	rampWG.Wait()
	if perr := rampErr.Load(); perr != nil {
		log.Fatalf("connect ramp failed: %v", *perr)
	}
	log.Printf("population connected and synced in %v", time.Since(rampStart).Round(time.Millisecond))

	// The wedged routers: tiny receive window, enough full-table queries
	// that the answers cannot all sit in kernel socket buffers, and then
	// silence. The server must shed them by write deadline without the
	// publish path ever noticing.
	queries := stallQueries(*vrps)
	stalled := make([]net.Conn, 0, *stall)
	for i := 0; i < *stall; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			log.Fatalf("stall conn %d: %v", i, err)
		}
		defer nc.Close()
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetReadBuffer(4096)
		}
		for q := 0; q < queries; q++ {
			if err := rtr.WritePDU(nc, rtr.Version1, &rtr.ResetQuery{}); err != nil {
				break
			}
		}
		stalled = append(stalled, nc)
	}

	// Publish-time ledger: slot k holds the instant publish k (serial
	// base+k) started, written before ApplyDelta runs so the measured
	// latency includes the whole notify fan-out. Instants are offsets from
	// epoch on the monotonic clock: a wall-clock step mid-run must not read
	// as latency.
	epoch := time.Now()
	maxPubs := int(*duration / *interval)
	pubTimes := make([]atomic.Int64, maxPubs+1)
	base := srv.Serial()

	var syncs, syncErrs atomic.Int64
	// closing is set before the harness closes the population: a Sync that
	// fails after it was cut off by the teardown, not by the server.
	var closing atomic.Bool
	samples := make([][]time.Duration, *clients)
	var popWG sync.WaitGroup
	for i, c := range pop {
		popWG.Add(1)
		go func(i int, c *rtr.Client) {
			defer popWG.Done()
			for {
				if _, err := c.WaitNotify(); err != nil {
					return // harness closed the client
				}
				s, err := c.Sync()
				if err != nil {
					if !closing.Load() {
						syncErrs.Add(1)
					}
					return
				}
				syncs.Add(1)
				// WaitNotify coalesces, so s may be several publishes past
				// the serial that woke us; it is always the newest synced
				// one, and its publish instant is the honest latency base.
				if k := int(uint32(s) - uint32(base)); k >= 1 && k <= maxPubs {
					if t := pubTimes[k].Load(); t != 0 {
						samples[i] = append(samples[i], time.Since(epoch)-time.Duration(t))
					}
				}
			}
		}(i, c)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Churn phase: alternate announcing and withdrawing a dedicated churn
	// set, one ApplyDelta per tick. The churn prefixes live outside the
	// base table so the delta is always exactly -churn VRPs.
	log.Printf("churning: %d publishes of %d VRPs at %v intervals...", maxPubs, *churn, *interval)
	churnSet := make([]rpki.VRP, *churn)
	for i := range churnSet {
		churnSet[i] = vrpAt(1<<22, i) // disjoint from baseTable's index range
	}
	pubLat := make([]time.Duration, 0, maxPubs)
	tick := time.NewTicker(*interval)
	for k := 1; k <= maxPubs; k++ {
		<-tick.C
		pubTimes[k].Store(int64(time.Since(epoch)))
		start := time.Now()
		if k%2 == 1 {
			srv.ApplyDelta(churnSet, nil)
		} else {
			srv.ApplyDelta(nil, churnSet)
		}
		pubLat = append(pubLat, time.Since(start))
	}
	tick.Stop()

	// Let in-flight syncs land, then tear the population down; the pollers
	// exit through WaitNotify's sticky error.
	time.Sleep(2 * *interval)
	alive := srv.ConnCount()
	closing.Store(true)
	for _, c := range pop {
		c.Close()
	}
	popWG.Wait()

	all := make([]time.Duration, 0, len(samples)*maxPubs/2)
	for _, s := range samples {
		all = append(all, s...)
	}
	pubP := percentiles(pubLat)
	syncP := percentiles(all)
	fmt.Printf("rtrload: %d clients + %d stalled, %d-VRP table, %d publishes x %d VRPs over %v\n",
		*clients, *stall, *vrps, maxPubs, *churn, *duration)
	fmt.Printf("publish (ApplyDelta): p50 %v  p90 %v  p99 %v  max %v\n",
		pubP[0], pubP[1], pubP[2], pubP[3])
	fmt.Printf("notify-to-sync:       p50 %v  p90 %v  p99 %v  max %v  (%d syncs, %d errors)\n",
		syncP[0], syncP[1], syncP[2], syncP[3], syncs.Load(), syncErrs.Load())
	stalledLeft := alive - *clients
	if stalledLeft < 0 {
		stalledLeft = 0
	}
	shed := *stall - stalledLeft
	fmt.Printf("sessions: %d connected at end of churn (%d pollers); stalled routers shed: %d of %d\n",
		alive, *clients, shed, *stall)

	if syncErrs.Load() > 0 {
		log.Fatalf("%d pollers died mid-soak", syncErrs.Load())
	}
	if alive < *clients {
		log.Fatalf("only %d of %d pollers still registered after the churn phase", alive, *clients)
	}
	if shed < *stall {
		log.Fatalf("only %d of %d stalled routers were shed: %d queued answers to a %d-VRP table did not wedge them for -write-timeout, or -duration is too short for it",
			shed, *stall, queries, *vrps)
	}
}

// stallQueries is how many Reset Queries a wedged router sends before going
// silent: enough that the pending answers (20 bytes a VRP) pass
// stallPendingBytes, within what the server lets one router queue.
func stallQueries(vrps int) int {
	const (
		// Four times Linux's default 4 MiB send-buffer ceiling
		// (net.ipv4.tcp_wmem): answers that fit the socket buffers are
		// written at once and the router never wedges anything.
		stallPendingBytes = 16 << 20
		// The server disconnects a router with more than 32 unanswered
		// queries (overflow); the soak wants the write-deadline path.
		maxQueries = 32
	)
	return min(max(4, 1+stallPendingBytes/(20*vrps)), maxQueries)
}

// baseTable builds the n-VRP starting table.
func baseTable(n int) *rpki.Set {
	vrps := make([]rpki.VRP, 0, n)
	for i := 0; i < n; i++ {
		vrps = append(vrps, vrpAt(0, i))
	}
	return rpki.NewSet(vrps)
}

// vrpAt maps (offset, i) to a distinct /24 VRP; offsets carve out disjoint
// index ranges (the churn set must never collide with the base table).
func vrpAt(offset, i int) rpki.VRP {
	k := offset + i
	p, err := prefix.Make(prefix.IPv4, uint64(10+(k>>16))<<56|uint64((k>>8)&0xff)<<48|uint64(k&0xff)<<40, 0, 24)
	if err != nil {
		panic(err)
	}
	return rpki.VRP{Prefix: p, MaxLength: 24, AS: rpki.ASN(64496 + i%1000)}
}

// percentiles returns {p50, p90, p99, max} of d (zeros when empty).
func percentiles(d []time.Duration) [4]time.Duration {
	if len(d) == 0 {
		return [4]time.Duration{}
	}
	s := append([]time.Duration(nil), d...)
	slices.Sort(s)
	at := func(p float64) time.Duration {
		i := int(p * float64(len(s)-1))
		return s[i]
	}
	return [4]time.Duration{at(0.50), at(0.90), at(0.99), s[len(s)-1]}
}
