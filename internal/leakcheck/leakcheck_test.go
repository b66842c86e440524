package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestMain: the checker checks itself.
func TestMain(m *testing.M) { Main(m) }

func TestCheckDetectsBlockedGoroutine(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		<-release
	}()
	<-started

	leaked := Check(50 * time.Millisecond)
	if len(leaked) == 0 {
		t.Fatal("Check missed a goroutine blocked on a channel")
	}
	found := false
	for _, g := range leaked {
		if strings.Contains(g, "TestCheckDetectsBlockedGoroutine") {
			found = true
		}
	}
	if !found {
		t.Errorf("leak report does not name the leaking test:\n%s", strings.Join(leaked, "\n\n"))
	}

	close(release)
	if leaked := Check(5 * time.Second); len(leaked) > 0 {
		t.Errorf("goroutine still reported after release:\n%s", strings.Join(leaked, "\n\n"))
	}
}

func TestCheckWaitsForSettle(t *testing.T) {
	done := make(chan struct{})
	go func() {
		time.Sleep(100 * time.Millisecond) // a goroutine that drains late: alive when Check starts
		close(done)
	}()
	// The goroutine is alive when Check starts but exits well inside
	// the window; Check must not report it.
	if leaked := Check(5 * time.Second); len(leaked) > 0 {
		t.Errorf("Check reported a goroutine that drained within the window:\n%s", strings.Join(leaked, "\n\n"))
	}
	<-done
}

func TestBenignFilters(t *testing.T) {
	cases := []struct {
		stack string
		want  bool
	}{
		{"goroutine 1 [running]:\ncalliope/internal/leakcheck.snapshot(...)\n", true},
		{"goroutine 2 [chan receive]:\ntesting.(*M).Run(...)\n", true},
		{"goroutine 7 [syscall]:\nos/signal.signal_recv(...)\n", true},
		{"goroutine 9 [chan receive]:\ncalliope/internal/msu.(*player).diskLoop(...)\n", false},
	}
	for _, c := range cases {
		if got := benign(c.stack); got != c.want {
			t.Errorf("benign(%q) = %v, want %v", c.stack, got, c.want)
		}
	}
}
