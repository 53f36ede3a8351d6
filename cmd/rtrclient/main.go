// Command rtrclient plays the router side of Figure 1: it connects to an
// RPKI-to-Router cache, synchronizes the validated prefix table, prints it
// as CSV, and (with -follow) keeps applying incremental updates as the cache
// announces them. -cache accepts a comma-separated list of cache addresses
// in preference order: follow mode runs the multi-cache failover supervisor,
// which serves from the most preferred reachable cache, fails over when it
// dies, fails back when it recovers, and delivers every switch to the local
// table as a structural delta rather than a rebuild. On SIGINT the client
// prints per-cache failover/failback statistics before exiting. Without
// -follow the command is one-shot: the addresses are tried in order and the
// first reachable cache is synchronized once, exiting with an error if none
// answers.
//
// Usage:
//
//	rtrclient [-cache 127.0.0.1:8282,127.0.0.1:8283] [-follow] [-version 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"

	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rtr"
)

// parseCaches splits the -cache flag into a preference-ordered address list.
func parseCaches(flagValue string) []string {
	var addrs []string
	for _, a := range strings.Split(flagValue, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

func main() {
	var (
		cache   = flag.String("cache", "127.0.0.1:8282", "comma-separated cache addresses in preference order")
		follow  = flag.Bool("follow", false, "stay connected and apply serial updates, failing over across caches and reconnecting across restarts")
		version = flag.Int("version", 1, "protocol version (0 or 1)")
	)
	flag.Parse()
	var protoVersion byte
	switch *version {
	case 0:
		protoVersion = rtr.Version0
	case 1:
		protoVersion = rtr.Version1
	default:
		log.Fatalf("rtrclient: bad -version %d", *version)
	}
	addrs := parseCaches(*cache)
	if len(addrs) == 0 {
		log.Fatal("rtrclient: -cache names no addresses")
	}

	if !*follow {
		// One-shot: try the caches in preference order, sync the first that
		// answers, and fail fast — scripts piping the CSV need an exit code,
		// not an endless redial loop.
		var lastErr error
		for _, addr := range addrs {
			c, err := rtr.Dial(addr)
			if err != nil {
				lastErr = err
				fmt.Fprintf(os.Stderr, "# cache %s unreachable: %v\n", addr, err)
				continue
			}
			c.Version = protoVersion
			serial, err := c.Sync()
			if err != nil {
				lastErr = err
				c.Close()
				fmt.Fprintf(os.Stderr, "# cache %s sync failed: %v\n", addr, err)
				continue
			}
			log.Printf("rtrclient: synchronized %d VRPs from %s at serial %d (session %#x)",
				c.Len(), addr, serial, c.SessionID())
			err = rpki.WriteCSV(os.Stdout, c.Set())
			c.Close()
			if err != nil {
				log.Fatalf("rtrclient: %v", err)
			}
			return
		}
		log.Fatalf("rtrclient: no cache reachable: %v", lastErr)
	}

	// Follow mode: the multi-cache supervisor owns the session lifecycles —
	// one reconnect loop per cache, the most preferred healthy one serving.
	// The validation index follows the delta stream in place
	// (O(delta) per update); a cache switch arrives as the structural diff
	// between the carried table and the new cache's table, so the index is
	// reset to a full table only when every cache was out past the Expire
	// window. The counters are atomic: the subscriber runs on the
	// supervisor's goroutine while the follow loop reads them from this one.
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	var announced, withdrawn atomic.Int64

	ups := make([]rtr.Upstream, 0, len(addrs))
	for _, addr := range addrs {
		addr := addr
		ups = append(ups, rtr.Upstream{
			Name: addr,
			Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		})
	}
	m := rtr.NewMultiSupervisor(ups...)
	m.Version = protoVersion
	m.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
	}
	m.Subscribe(func(ann, wd []rpki.VRP) {
		live.Apply(ann, wd)
		announced.Add(int64(len(ann)))
		withdrawn.Add(int64(len(wd)))
	})
	m.OnReset(live.ResetTo)
	updates := make(chan rtr.Serial, 64)
	m.OnUpdate = func(serial rtr.Serial) {
		// Never block the supervisor: dropping an update only skips a log
		// line — the table and index are already current.
		select {
		case updates <- serial:
		default:
		}
	}

	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)

	// First successful sync: print the table. The LiveIndex is the source —
	// the connection that produced the sync may already be gone (the
	// supervisor could be mid-redial), but the index carries the table.
	select {
	case serial := <-updates:
		table := rpki.NewSet(live.Snapshot().AppendVRPs(nil))
		log.Printf("rtrclient: synchronized %d VRPs at serial %d", table.Len(), serial)
		if err := rpki.WriteCSV(os.Stdout, table); err != nil {
			log.Fatalf("rtrclient: %v", err)
		}
	case <-sigc:
		printStats(m)
		return
	case err := <-runErr:
		log.Fatalf("rtrclient: %v", err)
	}
	for {
		select {
		case serial := <-updates:
			// One snapshot names the active cache and the counters alike.
			st := m.Stats()
			active := "none"
			for _, u := range st.Upstreams {
				if u.Active {
					active = u.Name
				}
			}
			fmt.Fprintf(os.Stderr, "# update: synced to %d via %s, %d VRPs (+%d -%d applied since start; %d switches, %d rebuilds)\n",
				serial, active, live.Len(), announced.Load(), withdrawn.Load(), st.Switches, st.Rebuilds)
		case <-sigc:
			m.Stop()
			<-runErr
			printStats(m)
			return
		case err := <-runErr:
			log.Fatalf("rtrclient: %v", err)
		}
	}
}

// printStats writes the per-cache failover statistics to stderr, the
// shutdown report promised by -follow.
func printStats(m *rtr.MultiSupervisor) {
	st := m.Stats()
	fmt.Fprintf(os.Stderr, "# rtrclient: shutting down: %d cache switches, %d rebuilds\n", st.Switches, st.Rebuilds)
	for _, u := range st.Upstreams {
		fmt.Fprintf(os.Stderr, "# cache %s: up=%t active=%t failovers=%d failbacks=%d dials=%d serial-resumes=%d reset-fallbacks=%d rebuilds=%d\n",
			u.Name, u.Up, u.Active, u.Failovers, u.Failbacks,
			u.Dials, u.SerialResumes, u.ResetFallbacks, u.Rebuilds)
	}
}
