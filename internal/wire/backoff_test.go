package wire

import (
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: time.Second, Rand: func() float64 { return 0 }}
	// With zero jitter, Next returns half the deterministic delay.
	want := []time.Duration{
		50 * time.Millisecond,  // 100ms
		100 * time.Millisecond, // 200ms
		200 * time.Millisecond, // 400ms
		400 * time.Millisecond, // 800ms
		500 * time.Millisecond, // capped at 1s
		500 * time.Millisecond, // stays capped
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("Next() #%d = %v, want %v", i, got, w)
		}
	}
	if b.Attempts() != 4 {
		t.Fatalf("Attempts() = %d after capping, want 4", b.Attempts())
	}
	b.Reset()
	if got := b.Next(); got != 50*time.Millisecond {
		t.Fatalf("Next() after Reset = %v, want 50ms", got)
	}
}

func TestBackoffJitterRange(t *testing.T) {
	// Equal jitter: delay in [d/2, d) for deterministic delay d.
	lo := Backoff{Base: 100 * time.Millisecond, Rand: func() float64 { return 0 }}
	hi := Backoff{Base: 100 * time.Millisecond, Rand: func() float64 { return 0.999 }}
	if got := lo.Next(); got != 50*time.Millisecond {
		t.Fatalf("zero-jitter Next() = %v, want 50ms", got)
	}
	if got := hi.Next(); got < 99*time.Millisecond || got >= 100*time.Millisecond {
		t.Fatalf("max-jitter Next() = %v, want in [99ms, 100ms)", got)
	}
}

func TestBackoffDefaults(t *testing.T) {
	b := Backoff{Rand: func() float64 { return 0 }}
	if got := b.Next(); got != DefaultBackoffBase/2 {
		t.Fatalf("default-base Next() = %v, want %v", got, DefaultBackoffBase/2)
	}
	for i := 0; i < 20; i++ {
		if got := b.Next(); got > DefaultBackoffCap {
			t.Fatalf("Next() = %v exceeds default cap %v", got, DefaultBackoffCap)
		}
	}
}

// Attempts reports how many delays have been handed out since the last
// Reset (capped delays stop counting — the curve is flat there).
func (b *Backoff) Attempts() int { return b.attempt }
