package msu

import (
	"testing"
	"time"

	"calliope/internal/core"
	"calliope/internal/wire"
)

// TestStopKeepsWhatTheSinkHolds sends a burst into a record sink and says
// stop at once, while the recorder is still behind (the test holds its
// lock, as a page write waiting for the spindle would): every datagram
// the socket had accepted by then is in the committed recording.
func TestStopKeepsWhatTheSinkHolds(t *testing.T) {
	r := newVCRRig(t)
	const packets = 40 // 40 KB: well inside the kernel's default receive buffer
	conn, vcr := r.record("take")
	defer vcr.Close() //nolint:errcheck // the MSU closes its end too
	r.m.mu.Lock()
	rec := r.m.streams[core.StreamID(r.next)].rec
	r.m.mu.Unlock()
	rec.mu.Lock()
	payload := make([]byte, 1000)
	for i := 0; i < packets; i++ {
		payload[0] = byte(i)
		if _, err := conn.Write(payload); err != nil {
			rec.mu.Unlock()
			t.Fatal(err)
		}
	}
	err := vcr.Call(wire.TypeVCR, wire.VCR{Op: "quit"}, &wire.VCRAck{})
	// The pass does not hang on this: it only gives the teardown time to
	// reach the recorder, so that a stop that drops the backlog shows.
	time.Sleep(20 * time.Millisecond)
	rec.mu.Unlock()
	if err != nil {
		t.Fatalf("stop: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, err := r.m.stores[0].Stat("take"); err == nil && st.Attrs[AttrTree] != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the recording never committed")
		}
		time.Sleep(time.Millisecond)
	}
	got, err := ReadBack(r.m.stores[0], "take")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != packets {
		t.Fatalf("the committed recording holds %d of the %d packets sent before stop", len(got), packets)
	}
	for i, p := range got {
		if p.Payload[0] != byte(i) {
			t.Fatalf("packet %d of the recording is packet %d of the burst", i, p.Payload[0])
		}
	}
}
