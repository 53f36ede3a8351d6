package rtr

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/synth"
)

// discardConn is a net.Conn that swallows writes: the full-response
// benchmarks measure encoding cost, not the kernel.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkSendFull compares the two ways to answer a Reset Query over a
// 50k-VRP table: "materialize" is the retired implementation (build a
// []PDU of len(vrps)+2 heap values, then write each), "stream" is the
// live one (visit the table, encode each VRP through the connection's
// reused buffer and one reused Prefix value) — allocation-bounded per
// response instead of linear in the table.
func BenchmarkSendFull(b *testing.B) {
	srv := NewServer(bigVRPSet(50_000))
	defer srv.Close()
	c := &conn{c: discardConn{}, bw: bufio.NewWriterSize(discardConn{}, 4096)}

	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := srv.pub.Load()
			vrps := p.current().AppendVRPs(nil)
			pdus := make([]PDU, 0, len(vrps)+2)
			pdus = append(pdus, &CacheResponse{SessionID: p.session})
			for _, v := range vrps {
				pdus = append(pdus, &Prefix{VRP: v, Flags: FlagAnnounce})
			}
			pdus = append(pdus, srv.endOfData(p.session, p.serial))
			for _, pdu := range pdus {
				if err := WritePDU(c.c, Version1, pdu); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := srv.writeItem(c, outItem{kind: outFull, version: Version1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSerialFanout measures what one publish costs the cache at a router
// population: one 8-VRP publish (eight /24s of a /21) into today's table, then
// N routers one serial behind, each answered by writeItem into a
// discardConn, at N = 1, 200 and 2,000. ns/router is the cost per router.
// fresh publishes into a newly built table; compacted publishes right after
// the cache's table compacted, so that the router's snapshot and the current
// one lie on two arena lineages.
func BenchmarkSerialFanout(b *testing.B) {
	table, _ := core.Compress(synth.Generate(synth.Params6_1()).VRPs, core.Options{})
	group := make([]rpki.VRP, 8)
	for k := range group {
		group[k] = rpki.VRP{Prefix: mp(fmt.Sprintf("198.51.%d.0/24", 96+k)), MaxLength: 24, AS: 64500}
	}
	// publish makes publish k, announcing the group or withdrawing it, and
	// returns the query of a router that held the serial before it.
	publish := func(srv *Server, k int) SerialQuery {
		q := SerialQuery{SessionID: srv.SessionID(), Serial: srv.Serial()}
		if k%2 == 0 {
			srv.ApplyDelta(group, nil)
		} else {
			srv.ApplyDelta(nil, group)
		}
		return q
	}
	fresh, compacted := NewServer(table), NewServer(table)
	defer fresh.Close()
	defer compacted.Close()
	freshQ := publish(fresh, 0)
	var compactedQ SerialQuery
	for k := 0; ; k++ {
		if k == 1<<20 {
			b.Fatal("the cache's table never compacted")
		}
		before := compacted.pub.Load().current()
		if compactedQ = publish(compacted, k); lineage(compacted.pub.Load().current()) != lineage(before) {
			break
		}
	}
	for _, c := range []struct {
		name string
		srv  *Server
		q    SerialQuery
	}{{"fresh", fresh, freshQ}, {"compacted", compacted, compactedQ}} {
		for _, n := range []int{1, 200, 2000} {
			conns := make([]*conn, n)
			for i := range conns {
				conns[i] = &conn{c: discardConn{}, bw: bufio.NewWriterSize(discardConn{}, 4096)}
			}
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, rc := range conns {
						if err := c.srv.writeItem(rc, outItem{kind: outSerial, version: Version1, query: c.q}); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/router")
			})
		}
	}
}

// BenchmarkPublishDelta measures the publish path a delta-fed cache runs
// per update — persistent-snapshot apply, ring roll, atomic swap — with no
// sessions connected, i.e. the floor the notify fan-out adds to.
func BenchmarkPublishDelta(b *testing.B) {
	srv := NewServer(bigVRPSet(50_000))
	defer srv.Close()
	v := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			srv.ApplyDelta([]rpki.VRP{v}, nil)
		} else {
			srv.ApplyDelta(nil, []rpki.VRP{v})
		}
	}
}

// quarterFull is cache_refresh's served set: the compressed full deployment of
// a quarter-scale 6/1/2017 table, 182,501 VRPs. Built once, on first use.
var quarterFull = sync.OnceValue(func() *rpki.Set {
	full, _ := core.Compress(core.FullDeploymentMinimal(synth.Generate(synth.Params6_1().Scale(0.25)).Table), core.Options{})
	return full
})

// BenchmarkNewServer measures cache_refresh's last set-up step: a cache built
// on quarterFull, which is the set's VRPs put in prefix order and the table
// built from them.
func BenchmarkNewServer(b *testing.B) {
	full := quarterFull()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewServer(full).Close()
	}
}

// BenchmarkClientReset measures a router's cold start against a cache on
// loopback: dial, Reset Query, today's 33,615-PDU table streamed, decoded
// and committed into the client's table. reads/op counts the client side's
// Read calls on the socket — its read(2) syscalls.
func BenchmarkClientReset(b *testing.B) {
	srv := NewServer(bigVRPSet(33615))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }() // returns when Close closes the listener
	defer srv.Close()
	var reads int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		cc := &countingConn{Conn: nc}
		c := NewClient(cc)
		if err := c.Reset(); err != nil {
			b.Fatal(err)
		}
		if c.Len() != 33615 {
			b.Fatalf("synced %d VRPs", c.Len())
		}
		c.Close()
		<-c.Done()
		reads += cc.reads.Load()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}

// BenchmarkColdStart measures a follower's cold start, wired as cmd/rtrclient
// -follow wires one: a cache serving today's compressed table (Table 1's
// status-quo row, 33,615 PDUs) on loopback, a MultiSupervisor with one
// upstream, a LiveIndex subscribed with Apply. An iteration runs from Run to
// the first delivery applied — stream, decode, the session table's build, and
// the consumer's, which enforces from then on, radix root and all: nothing is
// derived after it. The delivery itself walks nothing: rov.Diff from the
// supervisor's empty table hands over the list the session decoded, which
// ResetTo kept. B/op counts both ends of the loopback.
func BenchmarkColdStart(b *testing.B) {
	table, _ := core.Compress(synth.Generate(synth.Params6_1()).VRPs, core.Options{})
	srv := NewServer(table)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }() // returns when Close closes the listener
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live := rov.NewLiveIndex(rpki.NewSet(nil))
		applied := make(chan struct{}, 1)
		ms := NewMultiSupervisor(Upstream{Name: "cache", Dial: func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }})
		ms.Subscribe(func(announced, withdrawn []rpki.VRP) {
			live.Apply(announced, withdrawn)
			applied <- struct{}{}
		})
		done := make(chan error, 1)
		go func() { done <- ms.Run() }()
		<-applied
		b.StopTimer()
		if live.Len() != table.Len() {
			b.Fatalf("follower holds %d VRPs, want %d", live.Len(), table.Len())
		}
		ms.Stop()
		<-done
		b.StartTimer()
	}
}
