package msu

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/faultinject"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// logLines is an MSU's log, kept for a test to read while the MSU writes.
type logLines struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// matching returns the lines that contain substr.
func (l *logLines) matching(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range strings.Split(l.buf.String(), "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// TestFaultRecorderWriteFailureLogsOnce fails the device under a
// recording's next page. The full page stays put and every packet after
// it retries the write and is dropped, but the log says so twice, not once
// a packet: when the writes start failing and when one next succeeds,
// with the count. Once the device heals the recording goes on and
// commits; what it holds from before the fault (the page whose write was
// retried, rewritten in place by nothing in between) and after it is
// intact, and the reservation is settled. A second recording whose
// device never heals logs the count at its end instead, and is discarded.
func TestFaultRecorderWriteFailureLogsOnce(t *testing.T) {
	const blockSize = 64 * 1024
	mem, err := blockdev.NewMem(32 * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := faultinject.NewDevice(mem, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := msufs.Format(dev, msufs.Options{BlockSize: blockSize, MetaSize: 4 * blockSize})
	if err != nil {
		t.Fatal(err)
	}
	var logs logLines
	r := newVCRRigOn(t, Config{Volumes: []*msufs.Volume{vol}, Logger: log.New(&logs, "", 0)})
	free := r.m.stores[0].FreeBlocks()
	_, vcr := r.record("take")
	r.m.mu.Lock()
	rec := r.m.streams[core.StreamID(r.next)].rec
	r.m.mu.Unlock()
	appendLog := fmt.Sprintf("stream %d: append", r.next)

	// 1000-byte packets, 64 records to a 64 KB page: packet 64 closes
	// page 0, the recording's next block, on the device the fault covers.
	packet := func(i int) []byte {
		p := make([]byte, 1000)
		for j := range p {
			p[j] = byte(i*7 + j)
		}
		return p
	}
	send := func(from, to int) {
		for i := from; i < to; i++ {
			rec.append(protocol.Data, packet(i), time.Now())
		}
	}
	_, off, err := rec.w.file.Locate(0)
	if err != nil {
		t.Fatal(err)
	}
	send(0, 30)
	dev.FailWrites(off/blockSize, 1)
	send(30, 180) // 64 to 179 are dropped: 116 failed writes
	if got := logs.matching(appendLog); len(got) != 1 || !strings.Contains(got[0], blockdev.ErrInjected.Error()) {
		t.Fatalf("116 failed page writes logged %d lines (%q first), want the first failure's, with its error", len(got), append(got, "")[0])
	}
	dev.Heal()
	send(180, 280)
	if got := logs.matching(appendLog); len(got) != 2 || !strings.Contains(got[1], "116 dropped") {
		t.Fatalf("after the device healed the log holds %q, want the failure and one line counting 116 dropped packets", got)
	}
	r.quit(vcr)

	got, err := ReadBack(r.m.stores[0], "take")
	if err != nil {
		t.Fatalf("the recording did not commit: %v", err)
	}
	var want []int
	for i := 0; i < 280; i++ {
		if i < 64 || i >= 180 {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the recording holds %d packets, want %d: 0–63 and 180–279", len(got), len(want))
	}
	for k, i := range want {
		if !bytes.Equal(got[k].Payload, packet(i)) {
			t.Fatalf("packet %d of the recording is not packet %d as sent", k, i)
		}
	}
	if got := logs.matching(appendLog); len(got) != 2 {
		t.Errorf("the recording's end logged again: %q", got)
	}
	st, err := r.m.stores[0].Stat("take")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.m.stores[0].FreeBlocks(); got != free-st.Blocks {
		t.Errorf("%d free blocks after the commit, want %d: %d before the recording, less its %d blocks", got, free-st.Blocks, free, st.Blocks)
	}
	if n := r.m.obs.pinned.Load(); n != 0 {
		t.Errorf("readahead_pinned_pages = %d with nothing playing", n)
	}

	// A device that stays sick to the end: the count is logged at the
	// finish, the recording is discarded and its reservation comes back.
	free = r.m.stores[0].FreeBlocks()
	_, vcr = r.record("take2")
	r.m.mu.Lock()
	rec = r.m.streams[core.StreamID(r.next)].rec
	r.m.mu.Unlock()
	if _, off, err = rec.w.file.Locate(0); err != nil {
		t.Fatal(err)
	}
	dev.FailWrites(off/blockSize, 1)
	send(0, 164)
	r.quit(vcr)
	dev.Heal()
	stream := fmt.Sprintf("stream %d: ", r.next)
	if got := logs.matching(stream + "append"); len(got) != 1 {
		t.Errorf("100 failed page writes logged %q, want one line", got)
	}
	if got := logs.matching(stream + "recording ends with its last 100 packets dropped"); len(got) != 1 {
		t.Errorf("the finish logged %q about the dropped packets, want one line counting 100", got)
	}
	if _, err := r.m.stores[0].Stat("take2"); err == nil {
		t.Error("a recording whose pages never reached the disk was published")
	}
	if got := r.m.stores[0].FreeBlocks(); got != free {
		t.Errorf("%d free blocks after the discarded recording, %d before it", got, free)
	}
}

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
