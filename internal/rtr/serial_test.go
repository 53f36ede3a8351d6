package rtr

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSerialLess(t *testing.T) {
	cases := []struct {
		a, b Serial
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{0xffffffff, 0, true},          // wrap
		{0, 0xffffffff, false},         // wrap, reversed
		{0xfffffff0, 5, true},          // across the wrap
		{0, 1 << 31, false},            // antipodal: incomparable
		{1 << 31, 0, false},            // antipodal, reversed
		{100, 100 + (1<<31 - 1), true}, // just inside the window
	}
	for _, c := range cases {
		if got := SerialLess(c.a, c.b); got != c.want {
			t.Errorf("SerialLess(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSerialProperties(t *testing.T) {
	// Irreflexive and antisymmetric (except antipodes, where both false).
	f := func(a, b Serial) bool {
		l1, l2 := SerialLess(a, b), SerialLess(b, a)
		if a == b {
			return !l1 && !l2
		}
		if uint32(b)-uint32(a) == 1<<31 {
			return !l1 && !l2
		}
		return l1 != l2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Advancing by a small n always moves forward.
	g := func(s Serial, n8 uint8) bool {
		n := uint32(n8)
		if n == 0 {
			return SerialAdvance(s, 0) == s
		}
		return SerialNewer(SerialAdvance(s, n), s)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
