package msu

import (
	"bytes"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/core"
	"calliope/internal/media"
	"calliope/internal/queue"
	"calliope/internal/units"
)

// TestRingReuse: a play stream takes its descriptor ring from the pool
// and gives it back, empty, once its disk process has ended, so a later
// stream starts on a ring that holds nothing of another's. A stream
// played, paused and quit gives its ring back; a start refused before
// its disk process ran gives back the ring it took; and the next stream's
// ring is empty while its first read is at the device, and its first
// datagram is its own title's first packet.
func TestRingReuse(t *testing.T) {
	r := newBudgetRig(t, -1) // cache off: no resident head, so a start reads the disk
	titles := map[string][]media.Packet{}
	for title, size := range map[string]int{"first": 1024, "second": 700} {
		pkts, err := media.GenerateCBR(media.CBRConfig{Rate: 6 * units.Mbps, PacketSize: size, FPS: 30, GOP: 15, Duration: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := Ingest(r.m.stores[0], title, "mpeg1", pkts); err != nil {
			t.Fatal(err)
		}
		titles[title] = pkts
	}

	p := r.play("first")
	s := r.stream()
	r.frame(0)
	r.vcr(p, "pause", 0)
	ring := s.ring
	r.quit(p)
	if s.ring != nil {
		t.Error("a quit stream kept its ring")
	}
	if n := ring.Len(); n != 0 {
		t.Errorf("a quit stream gave its ring back holding %d descriptors", n)
	}

	// The group's first member is built, ring and all, before the second
	// fails to open: the refusal tears it down before its disk process ran.
	r.next++
	spec := core.StreamSpec{
		Stream: core.StreamID(r.next), Group: uint64(r.next),
		Content: "second", Type: "mpeg1", Protocol: "cbr", Class: core.ConstantRate,
		Rate: 6 * units.Mbps, DestAddr: r.sink.LocalAddr().String(), ClientTCP: r.ln.Addr().String(),
	}
	missing := spec
	missing.Stream, missing.Content = spec.Stream+1, "missing"
	r.next++
	if _, err := r.m.startStream([]core.StreamSpec{spec, missing}); err == nil {
		t.Fatal("a group with a missing title started")
	}
	pooledRingsEmpty(t)

	r.dev.hold()
	p = r.play("second")
	s = r.stream()
	await.Until(t, "the second stream's first read at the gate", r.dev.holding)
	if n := s.ring.Len(); n != 0 {
		t.Errorf("the second stream's ring holds %d descriptors before its first page is read", n)
	}
	r.dev.open()
	if got := r.collect(1)[0]; !bytes.Equal(got, titles["second"][0].Payload) {
		h, _ := media.ParseHeader(got)
		t.Errorf("the second stream's first datagram is %d bytes, frame %d, want its title's first packet (%d bytes, frame 0)",
			len(got), h.Frame, len(titles["second"][0].Payload))
	}
	r.quit(p)
}

// pooledRingsEmpty draws a few rings from the pool, checks each holds
// nothing, and gives them back.
func pooledRingsEmpty(t *testing.T) {
	t.Helper()
	var drawn []*queue.SPSC[descriptor]
	for range 4 {
		ring := rings.Get().(*queue.SPSC[descriptor])
		if n := ring.Len(); n != 0 {
			t.Errorf("a pooled ring holds %d descriptors", n)
		}
		drawn = append(drawn, ring)
	}
	for _, ring := range drawn {
		rings.Put(ring)
	}
}
