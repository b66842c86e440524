package wire

import (
	"math/rand"
	"time"
)

// Backoff computes capped exponential retry delays with jitter, used by
// every control-plane dial loop: the MSU's Coordinator re-registration
// (§2.2: "When the MSU becomes available again, it contacts the
// Coordinator"), the client's Coordinator reconnect, and the MSU's
// client control dial. Jitter prevents a cluster of MSUs that lost the
// Coordinator simultaneously from hammering it in lockstep when it
// returns.
//
// Backoff is pure arithmetic: Next returns the delay and the caller
// sleeps, so deterministic tests can drive it with a fake clock and a
// fixed Rand.
type Backoff struct {
	// Base is the first delay. Zero means DefaultBackoffBase.
	Base time.Duration
	// Cap bounds the delay growth. Zero means DefaultBackoffCap.
	Cap time.Duration
	// Rand supplies the jitter fraction in [0,1); nil means the global
	// math/rand source. Tests inject a constant for reproducibility.
	Rand func() float64

	attempt int
}

// Default backoff parameters for control-plane redials.
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffCap  = 15 * time.Second
)

// Next returns the delay before the next attempt: the capped
// exponential base doubled per attempt, scaled by a jitter factor in
// [0.5, 1.0) (the "equal jitter" scheme — never more than the cap,
// never less than half the deterministic delay).
func (b *Backoff) Next() time.Duration {
	base := b.Base
	if base <= 0 {
		base = DefaultBackoffBase
	}
	cap := b.Cap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	d := base << b.attempt
	if d <= 0 || d > cap { // <= 0: shift overflow
		d = cap
	} else {
		b.attempt++
	}
	rnd := b.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	half := d / 2
	return half + time.Duration(rnd()*float64(half))
}

// Reset rewinds the schedule to the base delay, for reuse after a
// successful attempt.
func (b *Backoff) Reset() { b.attempt = 0 }
