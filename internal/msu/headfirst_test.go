package msu

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"calliope/internal/media"
	"calliope/internal/protocol"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// sentPacket is one packet of a stored page as a viewer is sent it.
type sentPacket struct {
	t      time.Duration
	data   []byte
	inHead bool // its record ends at or below the page's head mark
}

// pagePackets reads page idx of title on m's disk 0 the plain way — whole,
// through the tree's own file — and returns its packets, with where on the
// device the page starts.
func pagePackets(tb testing.TB, m *MSU, title string, idx int) (pkts []sentPacket, off int64) {
	tb.Helper()
	c, err := m.openContent(0, title)
	if err != nil {
		tb.Fatal(err)
	}
	cur, err := c.tree.PageCursorAt(0)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, c.tree.PageSize())
	for i := 0; i <= idx; i++ {
		if ok, err := cur.LoadPage(buf); err != nil || !ok {
			tb.Fatalf("page %d of %q: %v, %v", i, title, ok, err)
		}
	}
	for {
		span, ok, err := cur.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			break
		}
		data := buf[span.Start : span.Start+span.Len]
		if _, payload, err := protocol.DecodeStored(data); err == nil {
			data = payload
		}
		pkts = append(pkts, sentPacket{t: span.Time, data: append([]byte(nil), data...), inHead: span.Start+span.Len <= len(buf)/headFraction})
	}
	if _, off, err = c.file.Locate(int64(idx)); err != nil {
		tb.Fatal(err)
	}
	return pkts, off
}

// received checks the next datagrams off the sink are want, in order and
// byte for byte.
func (r *budgetRig) received(want []sentPacket, when string) {
	r.t.Helper()
	for i, got := range r.collect(len(want)) {
		if !bytes.Equal(got, want[i].data) {
			r.t.Fatalf("%s: datagram %d of %d is not the stored packet (%d bytes, want %d)", when, i, len(want), len(got), len(want[i].data))
		}
	}
}

// cached reports whether page 0 of title is in the cache, asking the way
// a second viewer would.
func (r *budgetRig) cached(title string) bool {
	if r.cache == nil {
		return false
	}
	ref := r.cache.Lookup(title, 0)
	if ref == nil {
		return false
	}
	ref.Release()
	return true
}

func (r *budgetRig) await(what string, cond func() bool) {
	r.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// quitting waits for the quit of s's group to be under way.
func (r *budgetRig) quitting(s *stream) {
	r.t.Helper()
	r.await("the quit to begin", func() bool {
		s.group.mu.Lock()
		defer s.group.mu.Unlock()
		return s.group.quitted
	})
}

// finish quits a stream whatever it still has at the gate, and checks
// everything of the stream's is back.
func (r *budgetRig) finish(peer *wire.Peer, s *stream, when string) {
	r.t.Helper()
	r.vcr(peer, "quit", 0)
	r.dev.open()
	peer.Close() //nolint:errcheck // the MSU closes its end too
	r.drained()
	r.allBack(s, when)
}

// inserts is how many pages the cache has taken in, 0 with the cache off.
func (r *budgetRig) inserts() int64 {
	if r.cache == nil {
		return 0
	}
	return r.cache.Stats().Inserts
}

// TestFirstPageHeadFirst pins what a cold start reads and when. On an
// MSU built by New over a gated device, for packets from 4 KB to 512 B
// (each of which leaves a packet straddling the head mark) and with the
// cache on and off: the head of the first page, let through alone, sends
// exactly the packets that lie wholly inside it, with one page pinned,
// one asked for — as two reads, the head and the tail, the tail still at
// the gate — and none in the cache; the tail sends the rest, puts the
// page in the cache once and only then lets page 1 be asked for; a tail
// that fails ends the stream with nothing cached and nothing pinned; a
// Quit with the tail on the device keeps the page out until the device
// lets go; a title that ends inside the head of its only page is sent in
// full off the head, and its page given back once, after the tail; and a
// seek that lands past the head sends its first packet after the tail.
func TestFirstPageHeadFirst(t *testing.T) {
	for _, pktSize := range []int{4096, 1024, 512} {
		for _, cacheBytes := range []units.ByteSize{DefaultCacheBytes, -1} {
			name := fmt.Sprintf("%dB/cache=%v", pktSize, cacheBytes > 0)
			t.Run(name, func(t *testing.T) { testHeadFirst(t, pktSize, cacheBytes) })
		}
	}
}

func testHeadFirst(t *testing.T, pktSize int, cacheBytes units.ByteSize) {
	r := newBudgetRig(t, cacheBytes)
	dev := r.dev
	r.ingest(pktSize, map[string]time.Duration{"cold": 2 * time.Second, "fail": 2 * time.Second, "quit": 2 * time.Second, "seek": 2 * time.Second})
	// headOnly plays title against the held device and lets the head of
	// its first page through, alone. It returns with the head's packets
	// received and checked and the tail parked at the gate; rest is what
	// the page holds beyond them.
	headOnly := func(title string, page []sentPacket) (peer *wire.Peer, s *stream, rest []sentPacket) {
		t.Helper()
		k := split(t, title, page)
		dev.hold()
		requests, inserts, sent := r.m.ioStats(0).Requests, r.inserts(), r.m.obs.packets.Load()
		peer = r.play(title)
		s = r.stream()
		r.firstReadHeld(s, requests, startHeadFirst, title+": play")
		dev.gate <- struct{}{}
		r.received(page[:k], title+": with the head in")
		r.firstReadHeld(s, requests, startHeadFirst, title+": the head let through")
		// Every packet cut has been sent and counted once the last of them
		// is: a record cut from beyond the mark would show here, or as the
		// wrong bytes above.
		r.await("the head's packets to be counted", func() bool { return r.m.obs.packets.Load()-sent >= int64(k) })
		if n := r.m.obs.packets.Load() - sent; n != int64(k) {
			t.Errorf("%s: %d packets sent with the tail on the device, want the %d that lie inside the head", title, n, k)
		}
		if n := r.m.obs.pinned.Load(); n != 1 {
			t.Errorf("%s: readahead_pinned_pages = %d with the tail on the device, want 1", title, n)
		}
		if r.cached(title) || r.inserts() != inserts {
			t.Errorf("%s: the first page is in the cache with only its head read", title)
		}
		return peer, s, page[k:]
	}
	// Head, then tail: the rest of the page goes out, the page goes into
	// the cache, and page 1 is asked for — only now.
	page, _ := pagePackets(r.t, r.m, "cold", 0)
	requests, inserts := r.m.ioStats(0).Requests, r.inserts()
	peer, s, rest := headOnly("cold", page)
	dev.gate <- struct{}{}
	r.received(rest, "cold: with the tail in")
	r.await("page 1 to be asked for", func() bool { return r.m.ioStats(0).Requests == requests+startHeadFirst+1 })
	if r.cache != nil && (!r.cached("cold") || r.inserts() != inserts+1) {
		t.Errorf("the first page went into the cache %d times once whole, want 1", r.inserts()-inserts)
	}
	r.finish(peer, s, "after a head-first start and a quit")

	// The tail fails: the stream ends, with nothing cached and nothing
	// pinned.
	page, off := pagePackets(r.t, r.m, "fail", 0)
	inserts = r.inserts()
	dev.failAt(off + int64(s.tree.PageSize()/headFraction))
	peer, s, _ = headOnly("fail", page)
	dev.gate <- struct{}{}
	r.await("the stream to end", s.atEOF)
	if r.cached("fail") || r.inserts() != inserts {
		t.Error("a first page whose tail failed went into the cache")
	}
	r.allBack(s, "after a failed tail")
	dev.failAt(0)
	r.finish(peer, s, "after a failed tail and a quit")

	// A Quit with the tail on the device: the page is the device's until
	// it lets go.
	page, _ = pagePackets(r.t, r.m, "quit", 0)
	peer, s, _ = headOnly("quit", page)
	r.vcr(peer, "quit", 0)
	r.quitting(s)
	select {
	case <-s.done:
		t.Error("a stream ended with its first page's tail still on the device")
	default:
	}
	if got, held := s.res.Pinned(), r.held(); got != 1 || held != 1 {
		t.Errorf("a quit stream counts %d pinned pages and holds %d with the tail on the device, want 1", got, held)
	}
	dev.open()
	peer.Close() //nolint:errcheck // the MSU closes its end too
	r.drained()
	r.allBack(s, "after a quit with the tail on the device")

	// A title that ends inside the head: all of it goes out with the tail
	// on the device, and the page is still the device's until that is in.
	tiny := make([]media.Packet, 3)
	for i := range tiny {
		tiny[i] = media.Packet{Time: time.Duration(i) * time.Millisecond, Payload: bytes.Repeat([]byte{byte(i + 1)}, pktSize/4)}
	}
	if err := Ingest(r.m.stores[0], "tiny", "mpeg1", tiny); err != nil {
		t.Fatal(err)
	}
	page, _ = pagePackets(r.t, r.m, "tiny", 0)
	if len(page) != len(tiny) || !page[len(page)-1].inHead {
		t.Fatalf("the tiny title has %d packets in page 0, the last inside the head: %v; want all %d inside", len(page), page[len(page)-1].inHead, len(tiny))
	}
	dev.hold()
	requests = r.m.ioStats(0).Requests
	peer = r.play("tiny")
	s = r.stream()
	r.firstReadHeld(s, requests, startHeadFirst, "tiny: play")
	dev.gate <- struct{}{}
	r.received(page, "tiny: with the head in")
	r.firstReadHeld(s, requests, startHeadFirst, "tiny: the head let through")
	if s.atEOF() {
		t.Error("a title declared at its end with its page still on the device")
	}
	dev.open() // the tail, and the page the builder closed the index in
	r.await("the tiny title to end", s.atEOF)
	r.allBack(s, "after a title that ends inside the head")
	r.finish(peer, s, "after a title that ends inside the head, and a quit")

	// A seek that lands past the head of its page: nothing goes out until
	// the tail is in, and then the packet asked for. The first seek leaves
	// the index resident, so the second reads only data.
	var target sentPacket
	page, _ = pagePackets(r.t, r.m, "seek", 12)
	for i := 1; i < len(page); i++ {
		if !page[i].inHead && !page[i-1].inHead && page[i].t > page[i-1].t {
			target = page[i]
			break
		}
	}
	if target.data == nil {
		t.Fatal("no packet of page 12 starts a new delivery time past the head")
	}
	peer = r.play("seek")
	s = r.stream()
	r.vcr(peer, "seek", 100*time.Millisecond)
	r.await("a page to be sent after the first seek", func() bool { return s.sent.Load() >= 1 })
	r.vcr(peer, "pause", 0)
	r.allBack(s, "after a pause")
	r.emptySink()
	dev.hold()
	requests, sent := r.m.ioStats(0).Requests, r.m.obs.packets.Load()
	r.vcr(peer, "seek", target.t)
	r.firstReadHeld(s, requests, startHeadFirst, "seek")
	dev.gate <- struct{}{}
	r.firstReadHeld(s, requests, startHeadFirst, "seek, the head let through")
	if n := r.m.obs.packets.Load() - sent; n != 0 {
		t.Errorf("%d packets sent after a seek past the head with the tail on the device, want 0", n)
	}
	dev.gate <- struct{}{}
	r.received([]sentPacket{target}, "seek: with the tail in")
	r.finish(peer, s, "after a seek past the head and a quit")
}
