package msu

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"calliope/internal/wire"
)

const (
	senderRoot = "calliope/internal/msu.(*sender).run"
	streamRoot = "calliope/internal/msu.(*stream).run"
)

// goroutineRoots counts the goroutines running now by the function each
// was started with, leaving out the control connections' own and the
// report clock's tick: read loops and request handlers start and end with
// the connections and their requests, and a tick with its reports, a
// moment either side of what the MSU does.
func goroutineRoots() map[string]int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	roots := make(map[string]int)
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		for i, l := range lines {
			// A frame is a function line and a file line: the one above
			// "created by" is the goroutine's own function, below
			// runtime.goexit on one that has not run yet.
			if !strings.HasPrefix(l, "created by ") {
				continue
			}
			j := i - 2
			if strings.HasPrefix(lines[j], "runtime.goexit(") {
				j -= 2
			}
			roots[lines[j][:strings.LastIndex(lines[j], "(")]]++
		}
	}
	for fn := range roots {
		if strings.HasPrefix(fn, "calliope/internal/wire.") || strings.Contains(fn, ".reportTick") {
			delete(roots, fn)
		}
	}
	return roots
}

// TestGoroutinesPerStream pins the MSU's process structure (§2.3) on an
// MSU built by New, over real VCR connections. Idle, the MSU runs one
// sender; with n streams playing it runs one goroutine more a stream, its
// disk process, and nothing else beside the control connections' own (so
// idle, sender apart, + n + 1). A
// hundred seeks, pauses, resumes and fast-forwards spread over the
// streams start no goroutine and end none: each is a message to the
// stream's disk process. Paused before and after them, the streams leave
// the disk's pool at the same capacity, their reservations, with nothing
// pinned or lent; quit, the pool is back to its own pages and the MSU to
// its idle goroutines.
func TestGoroutinesPerStream(t *testing.T) {
	const n = 4
	r := newVCRRig(t)
	ingestMovie(t, r.m.stores[0], "movie", 20*time.Second, 30)
	pool := r.m.pools[0]
	// One play and quit first: the volume's scheduler starts its goroutine
	// on the first read, and it stays.
	p := r.play("movie")
	r.frame(0)
	r.quit(p)
	idle := goroutineRoots()
	if idle[senderRoot] != 1 || idle[streamRoot] != 0 {
		t.Fatalf("an idle MSU runs %d senders and %d disk processes, want its one sender", idle[senderRoot], idle[streamRoot])
	}

	peers := make([]*wire.Peer, n)
	for i := range peers {
		peers[i] = r.play("movie")
	}
	r.frame(0)
	playing := goroutineRoots()
	for fn, k := range playing {
		want := idle[fn]
		if fn == streamRoot {
			want = n
		}
		if k != want {
			t.Errorf("%d goroutines started by %s with %d streams playing, want %d", k, fn, n, want)
		}
	}
	pauseAll := func() {
		t.Helper()
		for _, p := range peers {
			r.vcr(p, "pause", 0)
		}
	}
	pauseAll()
	capBefore, pinnedBefore := pool.Cap(), r.m.obs.pinned.Load()
	if want := pool.Own() + n*pageBudget; capBefore != want {
		t.Errorf("paused, %d streams leave the pool a capacity of %d, want its own pages and their reservations, %d", n, capBefore, want)
	}
	for i := 0; i < 100; i++ {
		switch p := peers[i%n]; i % 4 {
		case 0:
			r.vcr(p, "seek", time.Duration(i)*157*time.Millisecond)
		case 1:
			r.vcr(p, "pause", 0)
		case 2:
			r.vcr(p, "play", 0)
		case 3:
			r.vcr(p, "fast-forward", 0)
		}
	}
	if got := goroutineRoots(); !reflect.DeepEqual(got, playing) {
		t.Errorf("after 100 commands the goroutines are %v, before them %v", got, playing)
	}
	pauseAll()
	if c, pinned, lent := pool.Cap(), r.m.obs.pinned.Load(), r.m.obs.lent.Load(); c != capBefore || pinned != pinnedBefore || lent != 0 {
		t.Errorf("paused after the commands: pool capacity %d, readahead_pinned_pages %d, readahead_lent_pages %d; before them %d, %d, 0",
			c, pinned, lent, capBefore, pinnedBefore)
	}

	for _, p := range peers {
		r.vcr(p, "quit", 0)
		p.Close() //nolint:errcheck // the MSU closes its end too
	}
	r.drained()
	if c := pool.Cap(); c != pool.Own() {
		t.Errorf("after quit the pool's capacity is %d, want its own %d pages", c, pool.Own())
	}
	if got := goroutineRoots(); !reflect.DeepEqual(got, idle) {
		t.Errorf("after quit the goroutines are %v, idle %v", got, idle)
	}
}
