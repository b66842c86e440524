package msu

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// headRig is a budgetRig whose titles were on the store before New, so
// their heads are resident, with what the head tests read off it.
type headRig struct {
	*budgetRig
	head, page int // bytes
}

func newHeadRig(t *testing.T, cacheBytes units.ByteSize, blockSize int, devSize int64, preload func(msufs.Store)) *headRig {
	t.Helper()
	r := newBudgetRigOn(t, cacheBytes, blockSize, devSize, preload)
	return &headRig{budgetRig: r, head: blockSize / headFraction, page: blockSize}
}

// pageOff is where on the device page idx of title starts.
func (r *headRig) pageOff(title string, idx int64) int64 {
	r.t.Helper()
	f, err := r.m.stores[0].Open(title)
	if err != nil {
		r.t.Fatal(err)
	}
	_, off, err := f.Locate(idx)
	if err != nil {
		r.t.Fatal(err)
	}
	return off
}

// parkedCall is the call waiting at the held gate: the last the device
// was asked for, since it is asked for one at a time.
func (r *headRig) parkedCall(when string) devCall {
	r.t.Helper()
	r.dev.awaitParked(r.t, when)
	calls := r.dev.callLog()
	return calls[len(calls)-1]
}

// split is how many of a page's packets lie wholly inside its head.
func split(t *testing.T, title string, page []sentPacket) int {
	t.Helper()
	k := 0
	for k < len(page) && page[k].inHead {
		k++
	}
	if k == 0 || k == len(page) {
		t.Fatalf("page 0 of %q has %d of its %d packets in the head: the test needs some on each side", title, k, len(page))
	}
	return k
}

// fromHead plays title against the held device and checks the start the
// resident head gives it: the packets that lie wholly inside the head
// arrive with nothing let through the gate, one page is pinned and none
// cached, and the one read on order is the rest of page 0. It returns
// with that read still parked; rest is what the page holds beyond the
// head's packets.
func (r *headRig) fromHead(title string) (peer *wire.Peer, s *stream, rest []sentPacket) {
	r.t.Helper()
	page, off := pagePackets(r.t, r.m, title, 0)
	k := split(r.t, title, page)
	r.dev.hold()
	requests, inserts, sent, starts := r.m.ioStats(0).Requests, r.inserts(), r.m.obs.packets.Load(), r.m.obs.headStarts.Load()
	peer = r.play(title)
	s = r.stream()
	r.received(page[:k], title+": with every read held")
	r.firstReadHeld(s, requests, startFromHead, title+": started from its head")
	if c := r.parkedCall(title); c != (devCall{off + int64(r.head), r.page - r.head}) {
		r.t.Errorf("%s: the read on order is %d bytes at %d, want the rest of page 0: %d at %d", title, c.n, c.off, r.page-r.head, off+int64(r.head))
	}
	r.await("the head's packets to be counted", func() bool { return r.m.obs.packets.Load()-sent >= int64(k) })
	if n := r.m.obs.packets.Load() - sent; n != int64(k) {
		r.t.Errorf("%s: %d packets sent with the rest on the device, want the %d that lie inside the head", title, n, k)
	}
	if n := r.m.obs.pinned.Load(); n != 1 {
		r.t.Errorf("%s: readahead_pinned_pages = %d with the rest on the device, want 1", title, n)
	}
	if r.cached(title) || r.inserts() != inserts {
		r.t.Errorf("%s: the first page is in the cache with only its head in RAM", title)
	}
	if n := r.m.obs.headStarts.Load() - starts; n != 1 {
		r.t.Errorf("%s: delivery_head_starts_total moved by %d, want 1", title, n)
	}
	return peer, s, page[k:]
}

// headFirst plays title against the held device and checks it starts the
// way a title without a head does: the first read on order is the head of
// page 0, off the disk. It returns with that read parked.
func (r *headRig) headFirst(title string) (*wire.Peer, *stream) {
	r.t.Helper()
	off := r.pageOff(title, 0)
	r.dev.hold()
	requests, starts := r.m.ioStats(0).Requests, r.m.obs.headStarts.Load()
	peer := r.play(title)
	s := r.stream()
	r.firstReadHeld(s, requests, startHeadFirst, title+": no head to start from")
	if c := r.parkedCall(title); c != (devCall{off, r.head}) {
		r.t.Errorf("%s: the first read is %d bytes at %d, want the head of page 0: %d at %d", title, c.n, c.off, r.head, off)
	}
	if n := r.m.obs.headStarts.Load() - starts; n != 0 {
		r.t.Errorf("%s: delivery_head_starts_total moved by %d for a title with no head", title, n)
	}
	return peer, s
}

func (r *headRig) heads() (titles, bytes int64) {
	return r.m.obs.heads.Load(), r.m.obs.headBytes.Load()
}

// TestResidentHead pins what keeps a start off the disk. On an MSU built
// by New over a gated device holding titles ingested beforehand, for
// packets from 4 KB to 512 B (each of which leaves a packet straddling the
// head): New read one head a title, through the scheduler; a play with
// every read held sends exactly the packets inside the head, with the
// rest of page 0 the one read on order; the rest sends the remainder
// byte for byte, puts the page in the cache once and only then lets page 1
// be asked for; a rest that fails ends the stream with nothing cached or
// pinned; a Quit with the rest on the device keeps the page out until the
// device lets go; a seek into the middle reads head first as it always
// did; a title recorded after New starts head first once and from its
// head after that; and a name deleted and ingested again starts from the
// new bytes. With the cache off there are no heads and no reads at New,
// and past the bound the title least recently started from loses its.
func TestResidentHead(t *testing.T) {
	for _, pktSize := range []int{4096, 1024, 512} {
		t.Run(fmt.Sprintf("%dB", pktSize), func(t *testing.T) { testResidentHead(t, pktSize) })
	}
	t.Run("cache off", testNoHeadsWithoutCache)
	t.Run("bound", testHeadBound)
}

func testResidentHead(t *testing.T, pktSize int) {
	titles := map[string]time.Duration{"cold": 2 * time.Second, "fail": 2 * time.Second, "quit": 2 * time.Second, "seek": 2 * time.Second, "again": 2 * time.Second}
	r := newHeadRig(t, DefaultCacheBytes, 64*1024, 32*int64(units.MB), func(store msufs.Store) {
		ingestCBR(t, store, pktSize, titles)
	})
	dev := r.dev

	// Start-up: one head a title, and nothing the scheduler did not issue.
	// (Format and ingest read nothing: the log begins with New.)
	loaded, starts := 0, make(map[int64]bool)
	for title := range titles {
		starts[r.pageOff(title, 0)] = true
	}
	for _, c := range dev.callLog() {
		if !starts[c.off] || c.n != r.head {
			t.Errorf("New read %d bytes at %d, which is not the head of a title", c.n, c.off)
		}
		delete(starts, c.off)
		loaded++
	}
	if io := r.m.ioStats(0); loaded != len(titles) || io.Reads != int64(loaded) || io.Requests != int64(loaded) {
		t.Errorf("New made %d device reads for %d titles, its scheduler %d reads of %d requests", loaded, len(titles), io.Reads, io.Requests)
	}
	if n, b := r.heads(); n != int64(len(titles)) || b != n*int64(r.head) {
		t.Errorf("resident_heads = %d (%d bytes) after New over %d titles of %d-byte heads", n, b, len(titles), r.head)
	}

	// From the head, then the rest: the remainder of the page goes out, the
	// page goes into the cache, and page 1 is asked for — only now.
	peer, s, rest := r.fromHead("cold")
	requests, inserts := r.m.ioStats(0).Requests, r.inserts() // with the rest of page 0 on order
	dev.gate <- struct{}{}
	r.received(rest, "cold: with the rest in")
	r.await("page 1 to be asked for", func() bool { return r.m.ioStats(0).Requests == requests+1 })
	if !r.cached("cold") || r.inserts() != inserts+1 {
		t.Errorf("the first page went into the cache %d times once whole, want 1", r.inserts()-inserts)
	}
	r.finish(peer, s, "after a start from the head and a quit")

	// The rest fails: the stream ends, with nothing cached and nothing
	// pinned.
	inserts = r.inserts()
	dev.failAt(r.pageOff("fail", 0) + int64(r.head))
	peer, s, _ = r.fromHead("fail")
	dev.gate <- struct{}{}
	r.await("the stream to end", s.atEOF)
	if r.cached("fail") || r.inserts() != inserts {
		t.Error("a first page whose rest failed went into the cache")
	}
	r.allBack(s, "after a failed rest")
	dev.failAt(0)
	r.finish(peer, s, "after a failed rest and a quit")

	// A Quit with the rest on the device: the page is the device's until it
	// lets go.
	peer, s, _ = r.fromHead("quit")
	r.vcr(peer, "quit", 0)
	r.quitting(s)
	select {
	case <-s.done:
		t.Error("a stream ended with the rest of its first page still on the device")
	default:
	}
	if got, held := s.res.Pinned(), r.held(); got != 1 || held != 1 {
		t.Errorf("a quit stream counts %d pinned pages and holds %d with the rest on the device, want 1", got, held)
	}
	dev.open()
	peer.Close() //nolint:errcheck // the MSU closes its end too
	r.drained()
	r.allBack(s, "after a quit with the rest on the device")

	// A seek into the middle of a title whose head is resident is read head
	// first, like any page a viewer waits on that is not page 0. The first
	// seek leaves the index resident, so the second reads only data.
	peer = r.play("seek")
	s = r.stream()
	r.vcr(peer, "seek", 100*time.Millisecond)
	r.await("a page to be sent after the first seek", func() bool { return s.sent.Load() >= 1 })
	r.vcr(peer, "pause", 0)
	r.allBack(s, "after a pause")
	r.emptySink()
	page, off := pagePackets(r.t, r.m, "seek", 12)
	target := page[len(page)-1].t // a delivery time that begins on this page
	dev.hold()
	requests, headStarts := r.m.ioStats(0).Requests, r.m.obs.headStarts.Load()
	r.vcr(peer, "seek", target)
	r.firstReadHeld(s, requests, startHeadFirst, "seek")
	if c := r.parkedCall("seek"); c != (devCall{off, r.head}) {
		t.Errorf("a seek's first read is %d bytes at %d, want the head of the page it lands on: %d at %d", c.n, c.off, r.head, off)
	}
	if n := r.m.obs.headStarts.Load() - headStarts; n != 0 {
		t.Errorf("delivery_head_starts_total moved by %d for a seek into the middle", n)
	}
	r.finish(peer, s, "after a seek into the middle and a quit")

	// A title recorded after New has no head yet: it starts head first
	// once, and leaves its head behind when its first page has landed.
	conn, vcr := r.record("take")
	pkt := bytes.Repeat([]byte{0x5a}, 1024)
	r.await("two pages of the recording to reach the disk", func() bool {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		st, err := r.m.stores[0].Stat("take")
		return err == nil && st.Size >= 2*int64(r.page)
	})
	r.quit(vcr)
	heads, _ := r.heads()
	peer, s = r.headFirst("take")
	dev.open()
	r.await("the recording's first page to land", func() bool { return r.cached("take") })
	if n, _ := r.heads(); n != heads+1 {
		t.Errorf("resident_heads = %d after a recording's first play, want %d", n, heads+1)
	}
	r.finish(peer, s, "after a recording's first play")
	r.cache.Invalidate("take", 0) // as eviction would: the head outlives the page
	peer, s, _ = r.fromHead("take")
	r.finish(peer, s, "after a recording's second play")

	// The same name, other bytes: the head of the deleted title is gone with
	// it, and the new one's first viewers get the new one's packets.
	old, _ := pagePackets(r.t, r.m, "again", 0)
	if err := r.m.deleteContent("again"); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.heads(); n != heads {
		t.Errorf("resident_heads = %d after a delete, want %d", n, heads)
	}
	other, err := media.GenerateCBR(media.CBRConfig{Rate: 3 * units.Mbps, PacketSize: pktSize, FPS: 24, GOP: 12, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := Ingest(r.m.stores[0], "again", "mpeg1", other); err != nil {
		t.Fatal(err)
	}
	page, _ = pagePackets(r.t, r.m, "again", 0)
	if bytes.Equal(page[0].data, old[0].data) {
		t.Fatal("the re-ingested title begins with the deleted one's first packet; the test cannot tell them apart")
	}
	peer, s = r.headFirst("again")
	dev.open()
	r.received(page, "again: the first play after the re-ingest")
	r.finish(peer, s, "after the re-ingested title's first play")
	r.cache.Invalidate("again", 0)
	peer, s, rest = r.fromHead("again") // checks the head's packets are the new title's
	dev.gate <- struct{}{}
	r.received(rest, "again: from its head, with the rest in")
	r.finish(peer, s, "after the re-ingested title's second play")
}

// testNoHeadsWithoutCache: with the cache off New reads nothing and keeps
// nothing, and a play starts head first.
func testNoHeadsWithoutCache(t *testing.T) {
	r := newHeadRig(t, -1, 64*1024, 32*int64(units.MB), func(store msufs.Store) {
		ingestCBR(t, store, 1024, map[string]time.Duration{"cold": 2 * time.Second})
	})
	if calls, io := r.dev.callLog(), r.m.ioStats(0); len(calls) != 0 || io.Requests != 0 {
		t.Errorf("New read %d times (%d requests) with the cache off, want none", len(calls), io.Requests)
	}
	peer, s := r.headFirst("cold")
	r.dev.open()
	r.await("the first page to be read", func() bool { return r.m.obs.pagesRead.Load() >= 1 })
	if n, b := r.heads(); n != 0 || b != 0 {
		t.Errorf("resident_heads = %d (%d bytes) with the cache off, want none", n, b)
	}
	r.finish(peer, s, "after a play with the cache off")
}

// testHeadBound: a default store (256 KB pages, 8 MB of cache) keeps 64
// heads, 2 MB. With 65 titles on it, the one New left out starts head
// first, and its head displaces that of the title least recently started
// from — not the one a viewer has just used.
func testHeadBound(t *testing.T) {
	const bound = 64
	names := make([]string, bound+1)
	r := newHeadRig(t, 0, 256*1024, 64*int64(units.MB), func(store msufs.Store) {
		for i := range names {
			names[i] = fmt.Sprintf("title-%02d", i)
			pkts := make([]media.Packet, 3)
			for j := range pkts {
				pkts[j] = media.Packet{Time: time.Duration(j) * time.Millisecond, Payload: bytes.Repeat([]byte{byte(i + 1)}, 256)}
			}
			if err := Ingest(store, names[i], "mpeg1", pkts); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n, b := r.heads(); n != bound || b != 2<<20 {
		t.Fatalf("resident_heads = %d (%d bytes) over %d titles on a default store, want %d (2 MB)", n, b, len(names), bound)
	}
	resident := func(title string) bool {
		r.m.contentMu.Lock()
		defer r.m.contentMu.Unlock()
		return r.m.heads[0].byName[title] != nil
	}
	var out string // the title New had no room for
	for _, title := range names {
		if !resident(title) {
			out = title
		}
	}
	// The titles are a few packets long and end inside their heads: a start
	// from the head sends all of one. Start from the head New loaded first,
	// so that it is no longer the least recently started.
	first, second := names[0], names[1]
	if out == first || out == second {
		first, second = names[2], names[3]
	}
	starts := r.m.obs.headStarts.Load()
	peer := r.play(first)
	s := r.stream()
	r.await("the title to end", s.atEOF)
	if n := r.m.obs.headStarts.Load() - starts; n != 1 {
		t.Errorf("delivery_head_starts_total moved by %d for a title whose head New loaded", n)
	}
	r.finish(peer, s, "after a start from a loaded head")

	peer, s = r.headFirst(out)
	r.dev.open()
	r.await("the title to end", s.atEOF)
	r.finish(peer, s, "after the 65th title's first play")
	if n, b := r.heads(); n != bound || b != 2<<20 {
		t.Errorf("resident_heads = %d (%d bytes) after the 65th title was played, want %d still", n, b, bound)
	}
	if !resident(out) || !resident(first) || resident(second) {
		t.Errorf("after the 65th title's play: its head resident %v, the just-started title's %v, the least recently started one's %v; want true, true, false",
			resident(out), resident(first), resident(second))
	}
	peer, s = r.headFirst(second)
	r.dev.open()
	r.await("the title to end", s.atEOF)
	r.finish(peer, s, "after the displaced title's play")
}
