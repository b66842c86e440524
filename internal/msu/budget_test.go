package msu

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/blockdev"
	"calliope/internal/cache"
	"calliope/internal/iosched"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// gatedDev is the device under the budget test's volume: it counts the
// pages asked of it — the device calls that begin on a block, so a page
// read head first, its head and then its rest, is one, like any other —
// and, while held, parks each call until the test lets it through. It
// deliberately does not implement blockdev.VectorReader, so every
// request is one ReadAt.
type gatedDev struct {
	blockdev.BlockDevice
	blockSize int64 // blocks start on its multiples: the metadata region is a whole number of them

	mu     sync.Mutex
	pages  int
	calls  []devCall     // every call, in the order they arrived
	parked int           // calls waiting at the gate
	gate   chan struct{} // non-nil while held: a send lets one call through, close all
	bad    int64         // a call at this offset fails, once through the gate; 0 for none
}

// devCall is one read as the device was asked for it.
type devCall struct {
	off int64
	n   int
}

var errGatedMedia = errors.New("media error")

func (d *gatedDev) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	d.calls = append(d.calls, devCall{off, len(p)})
	if off%d.blockSize == 0 {
		d.pages++
	}
	g := d.gate
	fail := off == d.bad
	if g != nil {
		d.parked++
	}
	d.mu.Unlock()
	if g != nil {
		<-g
		d.mu.Lock()
		d.parked--
		d.mu.Unlock()
	}
	if fail {
		return errGatedMedia
	}
	return d.BlockDevice.ReadAt(p, off)
}

// failAt makes every call at off fail; 0 (the superblock, which no
// stream reads) makes none.
func (d *gatedDev) failAt(off int64) {
	d.mu.Lock()
	d.bad = off
	d.mu.Unlock()
}

func (d *gatedDev) hold() {
	d.mu.Lock()
	d.gate = make(chan struct{})
	d.mu.Unlock()
}

// open lets every held read through; it is a no-op on an open gate, so
// a failing test's cleanup can call it whatever state it died in.
func (d *gatedDev) open() {
	d.mu.Lock()
	if d.gate != nil {
		close(d.gate)
		d.gate = nil
	}
	d.mu.Unlock()
}

func (d *gatedDev) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// callLog is every call the device has been asked for.
func (d *gatedDev) callLog() []devCall {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]devCall(nil), d.calls...)
}

// waiting is how many calls are parked at the gate.
func (d *gatedDev) waiting() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.parked
}

// holding reports whether a call is parked at the gate.
func (d *gatedDev) holding() bool { return d.waiting() > 0 }

// budgetRig is a vcrRig over a gatedDev with what the budget test
// watches: the device, the disk's cache (nil when off) and the stream
// whose pages are being counted.
type budgetRig struct {
	*vcrRig
	dev   *gatedDev
	cache *cache.Cache
}

// newBudgetRig is an MSU built by New over one gated, page-counting
// volume of 64 KB blocks, with the cache on or off.
func newBudgetRig(t *testing.T, cacheBytes units.ByteSize) *budgetRig {
	t.Helper()
	return newBudgetRigOn(t, cacheBytes, 64*1024, 32*int64(units.MB), nil)
}

// newBudgetRigOn is newBudgetRig with the volume's geometry chosen and,
// where preload is given, content on the store before New looks at it.
func newBudgetRigOn(t *testing.T, cacheBytes units.ByteSize, blockSize int, devSize int64, preload func(msufs.Store)) *budgetRig {
	t.Helper()
	mem, err := blockdev.NewMem(devSize)
	if err != nil {
		t.Fatal(err)
	}
	dev := &gatedDev{BlockDevice: mem, blockSize: int64(blockSize)}
	vol, err := msufs.Format(dev, msufs.Options{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	if preload != nil {
		preload(msufs.NewStore(vol))
	}
	r := &budgetRig{vcrRig: newVCRRigOn(t, Config{Volumes: []*msufs.Volume{vol}, CacheBytes: cacheBytes}), dev: dev}
	r.cache = r.m.cacheFor(0)
	t.Cleanup(dev.open) // runs before the rig closes its MSU, which waits for reads in flight
	return r
}

// ingest stores one 6 Mbit/s title for each name: a 64 KB page plays for
// ~85 ms.
func (r *budgetRig) ingest(pktSize int, titles map[string]time.Duration) {
	r.t.Helper()
	ingestCBR(r.t, r.m.stores[0], pktSize, titles)
}

func ingestCBR(t *testing.T, store msufs.Store, pktSize int, titles map[string]time.Duration) {
	t.Helper()
	for title, dur := range titles {
		pkts, err := media.GenerateCBR(media.CBRConfig{Rate: 6 * units.Mbps, PacketSize: pktSize, FPS: 30, GOP: 15, Duration: dur})
		if err != nil {
			t.Fatal(err)
		}
		if err := Ingest(store, title, "mpeg1", pkts); err != nil {
			t.Fatal(err)
		}
	}
}

// held is how many pages the rig's stream pins, counted without its own
// ledger: the disk's pool pages that readers hold — with the cache on,
// those of its pages that are not just cached — (the rig runs one stream
// at a time, so they are its).
func (r *budgetRig) held() int {
	if r.cache != nil {
		return r.cache.Pinned()
	}
	return r.m.pools[0].Held()
}

// stream is the rig's one stream: the one the last play started, which
// every VCR command after it repositions.
func (r *budgetRig) stream() *stream {
	r.t.Helper()
	var all []*stream
	r.m.inspect(func(e *engine) {
		for _, m := range e.streams {
			all = append(all, m.s)
		}
	})
	if len(all) != 1 {
		r.t.Fatalf("%d streams on the rig, want 1", len(all))
	}
	return all[0]
}

// awaitEnd waits for the stream to reach the end of what it plays.
func (r *budgetRig) awaitEnd(s *stream, what string) {
	r.t.Helper()
	await.Until(r.t, "the end of content: "+what, func() bool { return r.m.atEnd(s) })
}

// The requests a start submits for its one first page: the rest of it,
// when the title's head is resident; the head and the rest, when the page
// is read head first.
const (
	startFromHead  = 1
	startHeadFirst = 2
)

// firstReadHeld waits for a read to be parked at the gate and checks
// what the stream has asked of the disk by then: one page, in reads
// requests (startFromHead or startHeadFirst).
func (r *budgetRig) firstReadHeld(s *stream, requestsBefore, reads int64, when string) {
	r.t.Helper()
	await.Until(r.t, when+": a read at the gate", r.dev.holding)
	// The disk process is parked on this read — on the head, or with the
	// head cut on the rest — so nothing below can change until the gate
	// lets it through.
	if n := r.m.ioStats(0).Requests - requestsBefore; n != reads {
		r.t.Errorf("%s: %d reads submitted before the first page is in RAM, want %d", when, n, reads)
	}
	if got, held := s.res.Pinned(), r.held(); got != 1 || held != 1 {
		r.t.Errorf("%s: the stream counts %d pinned pages and holds %d before the first page is in RAM, want 1", when, got, held)
	}
}

// allBack checks nothing of s's, the rig's only stream, is pinned any
// more, and, if it has ended, that its reservation is back. A paused
// stream, or one at its end, keeps its reservation until it is quit.
func (r *budgetRig) allBack(s *stream, when string) {
	r.t.Helper()
	if n := r.held(); n != 0 {
		r.t.Errorf("%s: %d of the pool's pages still held", when, n)
	}
	pool := r.m.pools[0]
	select {
	case <-s.done:
		if cap, own := pool.Cap(), pool.Own(); cap != own {
			r.t.Errorf("%s: the pool's capacity is %d, want its own %d pages once the stream has ended", when, cap, own)
		}
	default:
		if cap, want := pool.Cap(), pool.Own()+pageBudget; cap != want {
			r.t.Errorf("%s: the pool's capacity is %d, want its own pages and the stream's reservation, %d", when, cap, want)
		}
	}
	if n := s.res.Pinned(); n != 0 {
		r.t.Errorf("%s: the stream still counts %d pinned pages", when, n)
	}
	if n, lent := r.m.obs.pinned.Load(), r.m.obs.lent.Load(); n != 0 || lent != 0 {
		r.t.Errorf("%s: readahead_pinned_pages = %d, readahead_lent_pages = %d, want 0", when, n, lent)
	}
}

// TestPageBudgetAndRamp pins the one bound on a stream's lead. On an
// MSU built by New, over a real VCR connection, for packets from 4 KB
// to 512 B and with the cache on and off: one page is read before the
// first datagram leaves, and of that page only the head — the rest is
// still held at the device; a play that is quit right after its first
// packet has read at most two; the pages a stream pins never exceed
// pageBudget and its reads never lead what it has sent in full by more
// than two pages plus one for each page sent; a seek starts again at one
// page; and at EOF, after a pause, after a Quit and after a cancel in
// mid-read every page is back — the stream's reservation at the Quit.
//
// Those subtests run on a disk that is never contended: one stream's
// reads, one at a time. On a contended one the ramp yields and a stream
// may pin lendPages past its reservation (testContendedBudget).
func TestPageBudgetAndRamp(t *testing.T) {
	for _, pktSize := range []int{4096, 1024, 512} {
		for _, cacheBytes := range []units.ByteSize{DefaultCacheBytes, -1} {
			name := fmt.Sprintf("%dB/cache=%v", pktSize, cacheBytes > 0)
			t.Run(name, func(t *testing.T) { testPageBudget(t, pktSize, cacheBytes) })
		}
	}
	t.Run("contended", testContendedBudget)
}

// testContendedBudget holds the device behind more than maxRun reads of
// nobody's, due an hour from now — never in a stream's deadline band, so
// they stay queued while the stream's pages go past them — and lets the
// stream's reads through one device call at a time, and one of those
// fillers only when it is on the device with a read of the stream's
// queued behind it. The disk is then contended throughout: once its first
// page is in, the stream stages its whole ring, and while the sender
// holds its reserved pages for pacing it pins up to lendPages
// more, lent by the disk's pool out of the cache's share, and never more
// than that. After a quit every page is back and nothing is lent.
func testContendedBudget(t *testing.T) {
	r := newBudgetRig(t, DefaultCacheBytes)
	dev := r.dev
	r.ingest(4096, map[string]time.Duration{"lend": 4 * time.Second})
	dev.hold()
	sched := r.m.diskScheds[0][0]
	filler := make([]iosched.Request, 16)
	done := make(chan *iosched.Request, len(filler))
	for i := range filler {
		filler[i] = iosched.Request{Buf: make([]byte, 4096), Deadline: time.Now().Add(time.Hour), C: done}
		sched.Submit(&filler[i])
	}
	await.Until(t, "the filler at the gate", dev.holding)
	if !r.m.contended(0) {
		t.Fatalf("%d reads queued on a held disk, and it does not read as contended", len(filler)-1)
	}

	// step lets the read on the device through: the stream's, or a filler
	// with one of the stream's reads queued behind it.
	released := 0 // calls let through so far, the filler parked first among them
	step := func() {
		calls := dev.callLog()
		var served int64 // the player's reads that reached the device: every call not at 0, where the fillers are
		for _, c := range calls {
			if c.off != 0 {
				served++
			}
		}
		switch {
		case len(calls) == released: // the last call let through, or none, is on the device
		case calls[released].off == 0 && r.m.ioStats(0).Requests-int64(len(filler)) == served:
			// A filler: the stream is cutting a page, its next read is coming.
		default:
			dev.gate <- struct{}{}
			released++
		}
	}

	peer := r.play("lend")
	s := r.stream()
	// Up to the ceiling, and on for a while: it holds.
	var peak int32
	var over time.Time
	await.Until(t, "the stream to pin its reservation plus the lent pages on a contended disk, and hold there", func() bool {
		step()
		got, held := s.res.Pinned(), r.held()
		if got > pageBudget+lendPages || held > pageBudget+lendPages {
			t.Fatalf("the stream counts %d pinned pages and holds %d, over its reservation of %d plus %d lent", got, held, pageBudget, lendPages)
		}
		if lent := r.m.pools[0].Lent(); lent > r.cache.Pages() {
			t.Fatalf("%d pages lent out of a cache of %d", lent, r.cache.Pages())
		}
		if !r.m.contended(0) {
			t.Fatal("the disk stopped reading as contended: the filler was served")
		}
		if peak = max(peak, got); peak == pageBudget+lendPages && over.IsZero() {
			if n := r.m.obs.lent.Load(); n != lendPages {
				t.Errorf("readahead_lent_pages = %d with the stream at its ceiling, want %d", n, lendPages)
			}
			over = time.Now().Add(20 * time.Millisecond)
		}
		return !over.IsZero() && !time.Now().Before(over)
	})
	r.vcr(peer, "quit", 0)
	dev.open()
	peer.Close() //nolint:errcheck // the MSU closes its end too
	r.drained()
	for range filler {
		<-done
	}
	r.allBack(s, "after a quit on a contended disk")
}

// TestWarmStartMakesNoPage holds that pages recycle through a disk's
// pool: once an MSU has played a title through, a play and a quit, a seek
// and a pause cost no new page, with the cache on or off. A start takes an
// idle page or evicts one, and a later page is made only while the pool
// holds fewer than its own pages plus one a pin, which a warm pool does
// not.
func TestWarmStartMakesNoPage(t *testing.T) {
	for _, cacheBytes := range []units.ByteSize{8 * 64 * 1024, -1} {
		t.Run(fmt.Sprintf("cache=%v", cacheBytes > 0), func(t *testing.T) {
			r := newBudgetRig(t, cacheBytes)
			r.ingest(4096, map[string]time.Duration{"warm": time.Second, "a": 2 * time.Second, "b": 2 * time.Second})
			pool := r.m.pools[0]
			peer := r.play("warm")
			r.awaitEnd(r.stream(), "a title played through")
			r.quit(peer)
			made := pool.Made()
			if made == 0 || made > pool.Own()+pageBudget {
				t.Fatalf("a title played through made %d pages, want 1 to %d", made, pool.Own()+pageBudget)
			}
			for _, title := range []string{"a", "b", "a"} {
				peer := r.play(title)
				r.frame(0)
				r.vcr(peer, "seek", time.Second)
				r.frame(0)
				r.vcr(peer, "pause", 0)
				r.quit(peer)
				if n := pool.Made(); n != made {
					t.Fatalf("a start, a seek and a quit on %q took the pool from %d pages made to %d", title, made, n)
				}
			}
			if n := pool.Held(); r.cache == nil && n != 0 {
				t.Errorf("%d pages held with the cache off and nothing playing", n)
			}
		})
	}
}

func testPageBudget(t *testing.T, pktSize int, cacheBytes units.ByteSize) {
	r := newBudgetRig(t, cacheBytes)
	dev := r.dev
	// 6 Mbit/s: a 64 KB page plays for ~85 ms, so the ramp opens within
	// the test's patience and no page is sent in full within a quit's.
	r.ingest(pktSize, map[string]time.Duration{"quit": 2 * time.Second, "ramp": 8 * time.Second, "eof": 500 * time.Millisecond, "cancel": 2 * time.Second})
	datagram := func(when string) {
		t.Helper()
		buf := make([]byte, 8192)
		r.sink.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, _, err := r.sink.ReadFromUDP(buf); err != nil {
			t.Fatalf("%s: no datagram: %v", when, err)
		}
	}

	// The head of one page is enough for the first datagram — the rest of
	// the page is still at the gate, and nothing more has been asked for —
	// and a play quit right after it has read at most two pages.
	dev.hold()
	before, reads := r.m.ioStats(0).Requests, dev.count()
	peer := r.play("quit")
	s := r.stream()
	r.firstReadHeld(s, before, startHeadFirst, "play")
	dev.gate <- struct{}{}
	datagram("with the head of one page read")
	r.firstReadHeld(s, before, startHeadFirst, "play, the head let through")
	if n := dev.count() - reads; n != 1 {
		t.Errorf("%d pages asked of the device with the first page's tail held, want 1", n)
	}
	r.vcr(peer, "quit", 0)
	dev.open()
	peer.Close() //nolint:errcheck // the MSU closes its end too
	r.drained()
	if n := dev.count() - reads; n > 2 {
		t.Errorf("a play quit right after its first packet read %d pages, want at most 2", n)
	}
	r.allBack(s, "after a quit")

	// The bound and the ramp, sampled while four pages go out in full.
	reads = dev.count()
	peer = r.play("ramp")
	s = r.stream()
	await.Until(t, "four pages to be sent in full", func() bool {
		caused := dev.count() - reads // before sent: sent only grows
		sent := s.sent.Load()
		if lead := caused - int(sent); lead > 2+int(sent) {
			t.Fatalf("%d pages read with %d sent in full: the ramp allows a lead of two pages plus one for each page sent", caused, sent)
		}
		if got, held := s.res.Pinned(), r.held(); got > pageBudget || held > pageBudget {
			t.Fatalf("the stream counts %d pinned pages and holds %d, over the budget of %d", got, held, pageBudget)
		}
		return sent >= 4
	})
	if caused := dev.count() - reads; caused < 3 {
		t.Errorf("%d pages read after four were sent in full: the ramp never opened", caused)
	}

	// A seek restarts the ramp at one page: at the command's ack the old
	// position's pages are given back and none is counted sent at the new
	// one. The first seek leaves the index resident, so the second reads
	// only data, and the pause leaves no read of the old position's held.
	r.vcr(peer, "seek", 3*time.Second)
	if n := s.sent.Load(); n != 0 {
		t.Errorf("%d pages counted sent at a seek's ack, want 0", n)
	}
	await.Until(r.t, "a page to be sent after the first seek", func() bool { return s.sent.Load() >= 1 })
	r.vcr(peer, "pause", 0)
	r.allBack(s, "after a pause")
	dev.hold()
	before = r.m.ioStats(0).Requests
	r.vcr(peer, "seek", 6*time.Second)
	r.firstReadHeld(s, before, startHeadFirst, "seek")
	dev.open()
	r.quit(peer)
	r.allBack(s, "after a seek and a quit")

	// A title played to its end.
	peer = r.play("eof")
	s = r.stream()
	r.awaitEnd(s, "a title played through")
	r.allBack(s, "at EOF")
	r.quit(peer)

	// A cancel while the first page is still on the disk.
	dev.hold()
	before = r.m.ioStats(0).Requests
	peer = r.play("cancel")
	s = r.stream()
	r.firstReadHeld(s, before, startHeadFirst, "play before a cancel")
	r.vcr(peer, "quit", 0)
	dev.open()
	peer.Close() //nolint:errcheck // the MSU closes its end too
	r.drained()
	r.allBack(s, "after a cancel in mid-read")
}
