// Package suppress is reprolint testdata for the //lint:ignore mechanism.
// Expectations live in reprolint_test.go (content-anchored, not // want
// comments: a want comment appended to a //lint:ignore line would become
// the directive's reason and change what is being tested).
package suppress

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

// suppressedAbove: a correct directive on the line above the finding.
func (b *box) suppressedAbove() {
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore blockinglock testdata: exercising the suppression mechanism
	b.ch <- 1
}

// suppressedSameLine: a correct trailing directive on the finding's line.
func (b *box) suppressedSameLine() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 2 //lint:ignore blockinglock testdata: trailing form
}

// wrongCheck: the directive names a different check, so the blockinglock
// finding must survive.
func (b *box) wrongCheck() {
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore lint testdata: names the wrong check on purpose
	b.ch <- 3
}

// missingReason: a directive with no reason is malformed — it suppresses
// nothing (the finding survives) and is itself reported.
func (b *box) missingReason() {
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore blockinglock
	b.ch <- 4
}
