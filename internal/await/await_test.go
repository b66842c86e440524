package await

import (
	"fmt"
	"testing"
	"time"
)

// recorder is a testing.TB whose Fatalf records instead of stopping.
type recorder struct {
	testing.TB
	fatal string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) { r.fatal = fmt.Sprintf(format, args...) }

func TestUntilReturnsOnceTheConditionHolds(t *testing.T) {
	polls := 0
	Until(t, "the third poll", func() bool { polls++; return polls == 3 })
	if polls != 3 {
		t.Fatalf("Until polled %d times for a condition true at the third, want 3", polls)
	}
}

func TestUntilFailsNamingWhatItWaitedFor(t *testing.T) {
	r := &recorder{TB: t}
	start := time.Now()
	until(r, "the impossible", func() bool { return false }, 20*time.Millisecond)
	if want := "timed out waiting for the impossible"; r.fatal != want {
		t.Fatalf("failure %q, want %q", r.fatal, want)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("gave up after %v, before its deadline", waited)
	}
}
