// Package blockinglock is reprolint testdata: true positives and true
// negatives for the blockinglock check.
package blockinglock

import (
	"bufio"
	"sync"
	"time"
)

type server struct {
	mu sync.Mutex
	rw sync.RWMutex
	wg sync.WaitGroup
	ch chan int
	n  int
	bw *bufio.Writer
}

// True positives: blocking while a lock is held.

func (s *server) sendUnderLock() {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while blockinglock.server.mu is held"
	s.mu.Unlock()
}

func (s *server) sendUnderDeferredUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1 // want "channel send while blockinglock.server.mu is held"
}

func (s *server) receiveUnderLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return <-s.ch // want "channel receive while blockinglock.server.rw is held"
}

func (s *server) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Second) // want "blocking call time.Sleep while blockinglock.server.mu is held"
	s.mu.Unlock()
}

func (s *server) waitUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want "blocking call (*sync.WaitGroup).Wait while blockinglock.server.mu is held"
}

func (s *server) selectUnderLock(done chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select with no default while blockinglock.server.mu is held"
	case s.ch <- 1:
	case <-done:
	}
}

// A bufio.Writer over a socket blocks in Flush, and in Write when the buffer
// fills.
func (s *server) flushUnderLock(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.bw.Write(p); err != nil { // want "blocking call (*bufio.Writer).Write while blockinglock.server.mu is held"
		return err
	}
	return s.bw.Flush() // want "blocking call (*bufio.Writer).Flush while blockinglock.server.mu is held"
}

// True negatives: blocking after release, non-blocking selects, and work
// handed to other goroutines.

func (s *server) sendAfterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- s.n
}

func (s *server) nonBlockingSend() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

func (s *server) spawnUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- 1
	}()
}

func (s *server) branchReleases() {
	s.mu.Lock()
	if s.n > 0 {
		s.n--
	}
	s.mu.Unlock()
	<-s.ch
}

// A range over a channel is a receive per iteration.
func (s *server) rangeUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range s.ch { // want "range over a channel while blockinglock.server.mu is held"
		s.n += v
	}
}

// With two locks held the finding names the most recently acquired one, on
// every run.
func (s *server) twoLocksHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rw.RLock()
	s.ch <- 1 // want "channel send while blockinglock.server.rw is held"
	s.rw.RUnlock()
	s.ch <- 2 // want "channel send while blockinglock.server.mu is held"
}

// sync.Cond.Wait must be called with the lock held: it releases it while
// waiting. Not a finding.
type queue struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []int
}

func (q *queue) pop() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 {
		q.cond.Wait()
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

// Inter-procedural: publish → enqueue → a send, two calls below the lock.

func (s *server) enqueue(v int) { s.ch <- v }

func (s *server) publish(v int) { s.enqueue(v) }

func (s *server) publishUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publish(1) // want "via (*blockinglock.server).publish → (*blockinglock.server).enqueue"
}

func (s *server) publishAfterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.publish(s.n)
}

func (s *server) publishOnOwnGoroutine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.publish(1)
}

func (s *server) publishStored() func(int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.publish
}

// Mutual recursion: neither function's summary is final until the other's
// is; the send in odd must reach even's callers.

func (s *server) even(n int) {
	if n > 0 {
		s.odd(n - 1)
	}
}

func (s *server) odd(n int) {
	s.ch <- n
	if n > 0 {
		s.even(n - 1)
	}
}

func (s *server) recurseUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.even(4) // want "call to (*blockinglock.server).even may block while blockinglock.server.mu is held"
}

// Interface dispatch widens to every implementation; one blocking
// implementation is enough.

type sink interface{ put(int) }

type counter struct{ n int }

func (c *counter) put(v int) { c.n += v }

type pipe struct{ ch chan int }

func (p *pipe) put(v int) { p.ch <- v }

func (s *server) putUnderLock(out sink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out.put(1) // want "call to (*blockinglock.pipe).put may block while blockinglock.server.mu is held"
}
