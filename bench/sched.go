package main

import (
	"runtime"
	"time"
)

// clock is what the open-loop generator needs from time, so a test can
// inject a stall and check the due-time accounting by hand.
type clock interface {
	now() time.Time
	sleepUntil(t time.Time)
}

// wallClock sleeps to just short of the due instant and yields the rest of
// the way: a bare time.Sleep overshoots — by a median 0.5 ms and up to
// 1.1 ms for a 10 ms sleep on the 2-CPU sandbox this was written on — which
// would show up as generator lateness in every enforce sample.
type wallClock struct{}

const spinWindow = 1500 * time.Microsecond

func (wallClock) now() time.Time { return time.Now() }

func (wallClock) sleepUntil(t time.Time) {
	if d := time.Until(t); d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop fires n operations on a fixed schedule: operation k is due at
// start + k·interval whether or not earlier ones have finished, so a stall
// is charged to every operation it delays (fire receives the due instant to
// time from) and is never hidden by sending less. It returns how late each
// operation was sent. keepGoing, when non-nil, ends the schedule early.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, keepGoing func() bool, fire func(k int, due time.Time)) (late []time.Duration) {
	late = make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		if keepGoing != nil && !keepGoing() {
			break
		}
		due := start.Add(time.Duration(k) * interval)
		clk.sleepUntil(due)
		lateness := clk.now().Sub(due)
		if lateness < 0 {
			lateness = 0
		}
		late = append(late, lateness)
		fire(k, due)
	}
	return late
}

// lateP99ms reduces generator lateness to the bench.late_p99_ms figure: the
// nearest-rank 99th percentile in ms, stated whatever the sample count — a
// late generator is reported, never hidden behind a reporting rule.
func lateP99ms(late []time.Duration) float64 {
	if len(late) == 0 {
		return 0
	}
	xs := make([]float64, len(late))
	for i, d := range late {
		xs[i] = float64(d) / 1e6
	}
	return p99Unchecked(xs)
}
