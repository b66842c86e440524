package ibtree

import (
	"bytes"
	"testing"
	"time"
)

// scan drains a page cursor across pages with one reused buffer,
// copying each span's payload out (the copy is what the contract says a
// caller must do if it wants bytes to outlive the page). It takes a
// positioning call's results whole: scan(tr.PageCursorAt(tm)).
func scan(c *PageCursor, err error) ([]Packet, error) {
	if err != nil {
		return nil, err
	}
	buf := make([]byte, c.t.pageSize)
	var out []Packet
	for {
		ok, err := c.LoadPage(buf)
		if err != nil || !ok {
			return out, err
		}
		for {
			span, ok, err := c.Next()
			if err != nil {
				return out, err
			}
			if !ok {
				break
			}
			payload := make([]byte, span.Len)
			copy(payload, buf[span.Start:span.Start+span.Len])
			out = append(out, Packet{Time: span.Time, Payload: payload})
		}
	}
}

// TestPageCursorYieldsWhatWasAppended checks the page-granular path
// yields exactly the packets the builder was given, in order, over a
// tree deep enough to have multiple internal levels.
func TestPageCursorYieldsWhatWasAppended(t *testing.T) {
	f := newMemFile(4096)
	const n = 5000
	meta := buildTree(t, f, 4096, 4, n, time.Millisecond, 64)
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	if meta.RootLevel < 2 {
		t.Fatalf("tree too shallow to embed internal pages between packets: level %d", meta.RootLevel)
	}
	got, err := scan(tr.PageCursorAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("page cursor yielded %d packets, the builder was given %d", len(got), n)
	}
	want := make([]byte, 64)
	for i := range got {
		want[0], want[1] = byte(i), byte(i>>8)
		if got[i].Time != time.Duration(i)*time.Millisecond || !bytes.Equal(got[i].Payload, want) {
			t.Fatalf("packet %d is %v %x, want %v %x", i, got[i].Time, got[i].Payload, time.Duration(i)*time.Millisecond, want)
		}
	}
}

// TestPageCursorAtSeeks checks PageCursorAt agrees with SeekTime for
// in-range, between-packet, boundary and beyond-the-end positions: the
// same packets from the seek point to the end of content.
func TestPageCursorAtSeeks(t *testing.T) {
	f := newMemFile(4096)
	const n = 3000
	meta := buildTree(t, f, 4096, 4, n, 10*time.Millisecond, 64)
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	probes := []time.Duration{
		0,
		10 * time.Millisecond,
		15 * time.Millisecond,
		1234 * 10 * time.Millisecond,
		(n - 1) * 10 * time.Millisecond,
		time.Hour, // beyond the end
	}
	for _, tm := range probes {
		want, err := scan(tr.SeekTime(tm))
		if err != nil {
			t.Fatalf("SeekTime(%v): %v", tm, err)
		}
		if len(want) == 0 {
			t.Fatalf("SeekTime(%v) yielded nothing", tm)
		}
		got, err := scan(tr.PageCursorAt(tm))
		if err != nil {
			t.Fatalf("PageCursorAt(%v): %v", tm, err)
		}
		if len(got) == 0 {
			t.Fatalf("PageCursorAt(%v) yielded nothing", tm)
		}
		if got[0].Time != want[0].Time || !bytes.Equal(got[0].Payload, want[0].Payload) {
			t.Fatalf("PageCursorAt(%v) first packet %v ≠ SeekTime's %v", tm, got[0].Time, want[0].Time)
		}
		// The tail from the seek point must run to the end of content.
		if wantTail := n - pktIndex(&want[0]); len(got) != wantTail || len(want) != wantTail {
			t.Fatalf("PageCursorAt(%v) yielded %d packets, SeekTime %d, want %d", tm, len(got), len(want), wantTail)
		}
	}
}

// TestPageCursorBufferSize checks LoadPage rejects buffers that are not
// exactly one page.
func TestPageCursorBufferSize(t *testing.T) {
	f := newMemFile(4096)
	meta := buildTree(t, f, 4096, 8, 100, time.Millisecond, 64)
	tr, _ := Open(f, 4096, meta)
	pc, err := tr.PageCursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.LoadPage(make([]byte, 4095)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := pc.LoadPage(make([]byte, 8192)); err == nil {
		t.Fatal("long buffer accepted")
	}
}

// TestPageCursorAliasingContract pins the payload-lifetime contract the
// zero-copy delivery path depends on: a span aliases the buffer it was
// parsed from, stays valid while that buffer still holds its page (the
// double-buffer rotation), and goes stale the moment the same buffer is
// reloaded with the next page.
func TestPageCursorAliasingContract(t *testing.T) {
	f := newMemFile(2048)
	const n = 400
	meta := buildTree(t, f, 2048, 8, n, time.Millisecond, 64)
	tr, _ := Open(f, 2048, meta)
	if tr.Meta().Pages < 3 {
		t.Fatalf("want ≥3 pages, got %d", tr.Meta().Pages)
	}
	pc, err := tr.PageCursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	bufs := [2][]byte{make([]byte, 2048), make([]byte, 2048)}
	type held struct {
		span PacketSpan
		buf  []byte
		idx  int
	}
	var prev []held // spans from the previous page, still referenced
	next := 0
	for pageNo := 0; ; pageNo++ {
		buf := bufs[pageNo%2]
		ok, err := pc.LoadPage(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// Rotating two buffers: the previous page's spans must still
		// read back their packets even though a new page was loaded.
		for _, h := range prev {
			got := h.buf[h.span.Start : h.span.Start+h.span.Len]
			if pktIndex(&Packet{Payload: got}) != h.idx {
				t.Fatalf("span for packet %d went stale while its buffer was untouched", h.idx)
			}
		}
		prev = prev[:0]
		for {
			span, ok, err := pc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			payload := buf[span.Start : span.Start+span.Len]
			if got := pktIndex(&Packet{Payload: payload}); got != next {
				t.Fatalf("packet %d read back as %d", next, got)
			}
			prev = append(prev, held{span: span, buf: buf, idx: next})
			next++
		}
	}
	if next != n {
		t.Fatalf("iterated %d packets, want %d", next, n)
	}
	// And the staleness direction: a span's bytes change when its own
	// buffer is reloaded with a different page.
	pc2, _ := tr.PageCursorAt(0)
	one := make([]byte, 2048)
	if ok, err := pc2.LoadPage(one); err != nil || !ok {
		t.Fatalf("LoadPage: %v %v", ok, err)
	}
	span, ok, err := pc2.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	before := make([]byte, span.Len)
	copy(before, one[span.Start:span.Start+span.Len])
	for {
		if _, ok, err := pc2.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	if ok, err := pc2.LoadPage(one); err != nil || !ok {
		t.Fatalf("LoadPage(2): %v %v", ok, err)
	}
	if bytes.Equal(before, one[span.Start:span.Start+span.Len]) {
		// Offsets can coincide only if payload bytes also repeat; with
		// index-stamped payloads the first packet of page 2 differs.
		t.Fatal("reloading the buffer did not invalidate the old span (contract test is vacuous)")
	}
}

// Page reports the index of the currently (or most recently) loaded
// data page, -1 before the first LoadPage.
func (c *PageCursor) Page() int64 { return c.cur }

// Short reports, after Next has said there is no span, whether that is
// because the next record reaches past the valid mark — the page is not
// finished, Raise and ask again — and not because the page is done.
func (c *PageCursor) Short() bool { return c.buf != nil }
