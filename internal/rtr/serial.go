package rtr

// Serial-number arithmetic (RFC 1982, referenced by RFC 6810 §5.9): RTR
// serials wrap at 2^32, so ordering must be computed modulo the ring. The
// server's UpdateSet increments monotonically, but a long-lived cache will
// eventually wrap, and clients comparing "is the notify newer than my
// state?" must not break when it does.

// Serial is an RTR serial number: a point on the RFC 1982 ring, not an
// integer. Ordering is only defined modulo the ring, so raw `<`/`>`
// comparisons and raw subtraction on Serial values are wrong the moment a
// long-lived cache wraps past 2^32 — all ordering must go through
// SerialLess/SerialNewer. TestSerialLess pins the ring order, and
// TestNotifyOrderAcrossSerialWrap its user, the client's stale-notify drop,
// across the wrap. The server orders no serials: it finds a retained serial
// by equality and notifies whatever it published last. Code that genuinely
// needs wrapping integer arithmetic converts through uint32 explicitly (as
// the wire codec does).
type Serial uint32

// SerialLess reports whether serial a precedes b on the RFC 1982 ring.
// Antipodal pairs (distance exactly 2^31) are incomparable; SerialLess
// returns false for both orders, as the RFC prescribes.
func SerialLess(a, b Serial) bool {
	if a == b {
		return false
	}
	d := uint32(b) - uint32(a) // wrapping subtraction, deliberately on uint32
	return d != 0 && d < 1<<31
}

// SerialNewer reports whether candidate is strictly newer than current,
// treating an antipodal candidate as NOT newer (forcing a reset instead of
// guessing).
func SerialNewer(candidate, current Serial) bool {
	return SerialLess(current, candidate)
}

// SerialAdvance returns the serial n steps after s on the ring.
func SerialAdvance(s Serial, n uint32) Serial { return s + Serial(n) }
