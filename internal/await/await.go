// Package await is the test suites' one condition wait. A test that
// must see an asynchronous step land (a gauge set, a goroutine parked,
// a file committed) names the step and the condition that shows it:
//
//	await.Until(t, "the MSU to register", func() bool { return c.MSUs() == 1 })
//
// Until polls the condition at one interval until it holds or one
// deadline passes, and fails the test naming the step. Only _test.go
// files import it, as with internal/leakcheck.
//
// A wait for something the code announces (an event on the
// Coordinator's timeline, a channel closing) does not poll: it blocks
// on the announcement, bounded by Deadline.
package await

import (
	"testing"
	"time"
)

// Deadline bounds every wait. It is a failure timeout, not a
// performance bound: the slowest positive wait in the tree (an MSU's
// re-registration after its redial backoff, a queued play waiting out
// a load) takes well under it on a loaded 2-core box.
const Deadline = 20 * time.Second

// Interval spaces the polls: short beside the steps awaited, long
// enough that a condition that scrapes /metrics or asks the
// Coordinator for its status does not load the box it waits on.
const Interval = 5 * time.Millisecond

// Until returns once cond holds, checking it at once and then every
// Interval. If Deadline passes first, it fails tb with "timed out
// waiting for " and what. It must be called from the test's goroutine.
func Until(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	until(tb, what, cond, Deadline)
}

func until(tb testing.TB, what string, cond func() bool, limit time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
			return
		}
		time.Sleep(Interval)
	}
}
