// Rtrpipeline runs the complete Figure 1 pipeline in one process:
//
//	signed ROA repository --scan--> validated VRPs --compress (§7)-->
//	RTR caches --RPKI-to-Router over TCP--> router client --> origin validation
//
// The router follows a pair of caches — a preferred primary and a backup —
// through the multi-cache failover supervisor. After the operator hardens a
// non-minimal ROA (the incremental update reaching the router as a delta),
// the primary cache is killed outright: the supervisor fails over to the
// backup, delivering the structural diff between the table the router holds
// and the backup's view — no rebuild, even though the backup had revalidated
// in the meantime and its table differs. When the primary returns (a fresh
// process: new session ID, no retained state), the supervisor fails back to
// it, again by delta — the deployment story of a router that stays
// continuously validated across cache deaths, divergent backups, and
// recoveries.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rpkix"
	"repro/internal/rtr"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the pipeline through and writes what the router sees to w. It
// waits for each state it reports, so the text is the same on every run.
func run(w io.Writer) error {
	// 1. Publish a signed repository: a TA, one CA, two ROAs — one of them
	//    a non-minimal maxLength ROA.
	dir, err := buildRepository()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 2. The local cache scans and cryptographically validates the objects.
	scan, err := rpkix.ScanROAs(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scan: %d ROAs validated, %d rejected -> %d VRPs\n",
		len(scan.ROAs), len(scan.Rejected), scan.VRPs.Len())

	// 3. Compress the PDU list before serving it (the §7 toolchain).
	pdus, res := core.Compress(scan.VRPs, core.Options{})
	if err := core.VerifyCompression(scan.VRPs, pdus); err != nil {
		return err
	}
	fmt.Fprintf(w, "compress: %d -> %d PDUs (%.1f%% saved)\n", res.In, res.Out, 100*res.SavedFraction())

	// 4. Serve the table from two caches and sync a router through the
	//    multi-cache supervisor. The router's validation table is a live
	//    index fed by the delta stream: every delivery — initial sync,
	//    incremental update, failover, fail-back — applies in O(delta),
	//    never rebuilding the index.
	primary := rtr.NewServer(pdus)
	lp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	primaryAddr := lp.Addr().String()
	go primary.Serve(lp)
	defer primary.Close()

	backup := rtr.NewServer(pdus)
	backup.SetSession(0xbac1, 1)
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	backupAddr := lb.Addr().String()
	go backup.Serve(lb)
	defer backup.Close()

	live := rov.NewLiveIndex(rpki.NewSet(nil))
	m := rtr.NewMultiSupervisor(
		rtr.Upstream{Name: "primary", Dial: func() (net.Conn, error) { return net.Dial("tcp", primaryAddr) }},
		rtr.Upstream{Name: "backup", Dial: func() (net.Conn, error) { return net.Dial("tcp", backupAddr) }},
	)
	m.BackoffMin = 5 * time.Millisecond
	m.BackoffMax = 100 * time.Millisecond
	m.Subscribe(func(announced, withdrawn []rpki.VRP) {
		live.Apply(announced, withdrawn)
	})
	m.OnReset(live.ResetTo)
	// The serial of the serving cache's latest sync, once its delivery has
	// returned.
	var serial atomic.Uint32
	m.OnUpdate = func(s rtr.Serial) { serial.Store(uint32(s)) }
	go m.Run()
	defer m.Stop()

	// Either cache may sync first; the router is settled once both are up,
	// the preferred one serves, and the router has taken its serial.
	bothUp := func() bool {
		st := m.Stats().Upstreams
		return st[0].Up && st[1].Up && st[0].Active
	}
	if err := waitUntil(func() bool { return bothUp() && rtr.Serial(serial.Load()) == primary.Serial() }); err != nil {
		return err
	}
	fmt.Fprintf(w, "router: synchronized %d VRPs at serial %d from the primary cache\n", live.Len(), serial.Load())

	// 5. The router validates announcements with its synchronized table.
	hijack := prefix.MustParse("168.122.0.0/24")
	fmt.Fprintf(w, "router: forged-origin hijack %v AS111 -> %v (maxLength ROA leaves it Valid!)\n",
		hijack, live.Validate(hijack, 111))

	// 6. The operator hardens the ROA to a minimal one; both caches pick up
	//    the change; the router's live index follows the primary's delta.
	minimal := rpki.NewSet([]rpki.VRP{
		{Prefix: prefix.MustParse("168.122.0.0/16"), MaxLength: 16, AS: 111},
		{Prefix: prefix.MustParse("168.122.225.0/24"), MaxLength: 24, AS: 111},
		{Prefix: prefix.MustParse("87.254.32.0/19"), MaxLength: 19, AS: 31283},
	})
	primary.UpdateSet(minimal)
	backup.UpdateSet(minimal)
	// The wait reads the index's snapshot, which the live index does not
	// count as a validated route.
	if err := waitUntil(func() bool {
		return live.Snapshot().Validate(hijack, 111) == rov.Invalid && rtr.Serial(serial.Load()) == primary.Serial()
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "router: incremental update to serial %d (%d VRPs, index updated in place)\n",
		serial.Load(), live.Len())
	fmt.Fprintf(w, "router: forged-origin hijack %v AS111 -> %v (hardened: now Invalid)\n",
		hijack, live.Validate(hijack, 111))

	// 7. The backup revalidates on its own schedule and notices the AS 31283
	//    ROA expired — its table now differs from the primary's. Then the
	//    primary cache dies. The supervisor fails over to the backup and
	//    delivers the structural diff between the table the router holds and
	//    the backup's snapshot: one withdrawal, no rebuild.
	revalidated := rpki.NewSet([]rpki.VRP{
		{Prefix: prefix.MustParse("168.122.0.0/16"), MaxLength: 16, AS: 111},
		{Prefix: prefix.MustParse("168.122.225.0/24"), MaxLength: 24, AS: 111},
	})
	backup.UpdateSet(revalidated)
	primary.Close()
	if err := waitUntil(func() bool { return m.Active() == 1 && live.Len() == revalidated.Len() }); err != nil {
		return err
	}
	fmt.Fprintf(w, "router: primary died; failed over to backup by delta (%d VRPs; %d rebuilds)\n",
		live.Len(), m.Stats().Rebuilds)
	expired := prefix.MustParse("87.254.32.0/19")
	fmt.Fprintf(w, "router: %v AS31283 -> %v (ROA gone on the backup), hijack still %v\n",
		expired, live.Validate(expired, 31283), live.Validate(hijack, 111))

	// 8. The primary returns as a fresh process — new session ID, no
	//    retained deltas, table revalidated to match. The supervisor fails
	//    back to the preferred cache, delivering the (here empty) diff
	//    between the backup's table and the restarted primary's — the
	//    router never rebuilds. How often each cache was dialled, and
	//    whether the backup served first, depend on timing, so only the
	//    counts every run shares are printed.
	primary2 := rtr.NewServer(revalidated)
	primary2.SetSession(0xf4e5, 1)
	lp2, err := relisten(primaryAddr)
	if err != nil {
		return err
	}
	go primary2.Serve(lp2)
	defer primary2.Close()

	if err := waitUntil(bothUp); err != nil {
		return err
	}
	fmt.Fprintf(w, "router: primary restarted with a new session; failed back (%d VRPs; healthy=%v)\n",
		live.Len(), m.Healthy())
	for _, u := range m.Stats().Upstreams {
		fmt.Fprintf(w, "router: cache %s: up=%t active=%t failovers=%d reset-fallbacks=%d rebuilds=%d\n",
			u.Name, u.Up, u.Active, u.Failovers, u.ResetFallbacks, u.Rebuilds)
	}

	// 9. The serving read path. The live index answers every route from
	//    its current snapshot — a radix root over the top 16 address bits,
	//    then a short path-compressed descent — the moment a delivery lands.
	fmt.Fprintf(w, "router: live index (%d VRPs): hijack %v AS111 -> %v, expired %v AS31283 -> %v\n",
		live.Len(), hijack, live.Validate(hijack, 111), expired, live.Validate(expired, 31283))
	return nil
}

// waitUntil polls cond until it holds, or fails once a deadline long past
// any backoff in this example has passed.
func waitUntil(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("rtrpipeline: state not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// relisten rebinds the address the killed cache listened on.
func relisten(addr string) (net.Listener, error) {
	var err error
	for i := 0; i < 100; i++ {
		var l net.Listener
		if l, err = net.Listen("tcp", addr); err == nil {
			return l, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}

func buildRepository() (string, error) {
	dir, err := os.MkdirTemp("", "rtrpipeline-repo")
	if err != nil {
		return "", err
	}
	repo, err := rpkix.NewRepository("Pipeline TA")
	if err != nil {
		return "", err
	}
	ca, err := repo.AddCA("Pipeline CA", []string{"168.122.0.0/16", "87.254.32.0/19"})
	if err != nil {
		return "", err
	}
	roas := []rpki.ROA{
		// The §4 non-minimal ROA.
		{AS: 111, Prefixes: []rpki.ROAPrefix{
			{Prefix: prefix.MustParse("168.122.0.0/16"), MaxLength: 24},
		}},
		// Figure 2's compressible minimal ROA.
		{AS: 31283, Prefixes: []rpki.ROAPrefix{
			{Prefix: prefix.MustParse("87.254.32.0/19"), MaxLength: 19},
			{Prefix: prefix.MustParse("87.254.32.0/20"), MaxLength: 20},
			{Prefix: prefix.MustParse("87.254.48.0/20"), MaxLength: 20},
			{Prefix: prefix.MustParse("87.254.32.0/21"), MaxLength: 21},
		}},
	}
	for _, r := range roas {
		if err := repo.PublishROA(ca, r); err != nil {
			return "", err
		}
	}
	return dir, repo.Write(dir)
}
