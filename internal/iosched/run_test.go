package iosched_test

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/iosched"
)

// The tests here are the contended-disk claims: read-ahead that lies
// contiguous behind the transfer being assembled rides it whatever its
// deadline band, up to four requests, but only while more requests are
// waiting than one transfer can carry. Streams are runs of adjacent
// blocks whose deadlines lie one second — four bands — apart, as
// consecutive pages of one title do.

// gated builds a gateDev over inner with its gate shut. open lets every
// read through and may be called twice: each test also defers it after
// deferring Close, so one that fails with a read held at the gate still
// lets its scheduler stop.
func gated(inner blockdev.BlockDevice) (gd *gateDev, gate chan struct{}, open func()) {
	gate = make(chan struct{})
	gd = &gateDev{inner: inner, gate: gate, started: make(chan int64, 64)}
	return gd, gate, sync.OnceFunc(func() { close(gate) })
}

// numbered is a memory device whose every block is filled with its own
// block number, so a scatter into the wrong buffer shows.
func numbered(t *testing.T, blocks int64) *blockdev.Mem {
	t.Helper()
	m := mem(t, blocks)
	buf := make([]byte, bs)
	for blk := int64(0); blk < blocks; blk++ {
		for i := range buf {
			buf[i] = byte(blk)
		}
		if err := m.WriteAt(buf, blk*bs); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// stream queues n consecutive blocks from first, the i-th wanted i
// seconds after start.
func stream(s *iosched.Scheduler, done chan *iosched.Request, first int64, n int, start time.Time) []*iosched.Request {
	reqs := make([]*iosched.Request, n)
	for i := range reqs {
		reqs[i] = &iosched.Request{
			Off:      (first + int64(i)) * bs,
			Buf:      make([]byte, bs),
			Deadline: start.Add(time.Duration(i) * time.Second),
			C:        done,
		}
		s.Submit(reqs[i])
	}
	return reqs
}

// onDevice waits for the next read to reach the device and checks it is
// of block blk.
func onDevice(t *testing.T, d *gateDev, blk int64) {
	t.Helper()
	w := time.NewTimer(10 * time.Second)
	defer w.Stop()
	select {
	case off := <-d.started:
		if off != blk*bs {
			t.Fatalf("block %d reached the device, want block %d", off/bs, blk)
		}
	case <-w.C:
		t.Fatalf("timed out waiting for block %d to reach the device", blk)
	}
}

// TestBacklogReadsRuns: four streams' rings of four pages queue behind a
// plug. While the disk is behind, a ring is one transfer scattered into
// each request's own buffer — three positionings for the first three
// streams, not twelve. The last ring has nobody left behind it and goes
// out page by page, as it would have on an idle disk.
func TestBacklogReadsRuns(t *testing.T) {
	gd, _, open := gated(numbered(t, 64))
	counting := blockdev.NewCounting(gd)
	s := iosched.New(counting, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(5000, 0)
	done := make(chan *iosched.Request, 32)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base})
	onDevice(t, gd, 0)
	var reqs []*iosched.Request
	for _, first := range []int64{40, 8, 56, 24} {
		reqs = append(reqs, stream(s, done, first, 4, base)...)
	}
	open()
	collect(t, done, 17)

	if got := counting.Reads.Load(); got != 8 {
		t.Fatalf("device saw %d transfers, want 8 (the plug, one for each of three streams, four for the last)", got)
	}
	if st := s.Stats(); st.Reads != 8 || st.Coalesced != 9 {
		t.Fatalf("stats %+v: want 8 reads, 9 coalesced", st)
	}
	// The first of each run is still picked by band and C-SCAN.
	want := []int64{0}
	for _, first := range []int64{8, 24, 40, 56} {
		for i := int64(0); i < 4; i++ {
			want = append(want, (first+i)*bs)
		}
	}
	if got := gd.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v", got, want)
	}
	for _, r := range reqs {
		if r.Err != nil {
			t.Fatalf("block %d: %v", r.Off/bs, r.Err)
		}
		for _, b := range r.Buf {
			if b != byte(r.Off/bs) {
				t.Fatalf("block %d's buffer holds block %d: scatter broke", r.Off/bs, b)
			}
		}
	}
}

// TestRunCap: six contiguous blocks on a contended disk are a transfer of
// four and a transfer of two — no transfer, and so no wait of an urgent
// arrival, exceeds one player's ring.
func TestRunCap(t *testing.T) {
	gd, gate, open := gated(mem(t, 64))
	counting := blockdev.NewCounting(gd)
	s := iosched.New(counting, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(6000, 0)
	done := make(chan *iosched.Request, 16)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base})
	onDevice(t, gd, 0)
	stream(s, done, 10, 6, base)
	for _, blk := range []int64{30, 35, 40, 45, 50} { // the others in line, comfortable and scattered
		s.Submit(&iosched.Request{Off: blk * bs, Buf: make([]byte, bs), C: done, Deadline: base.Add(time.Minute)})
	}

	// Counting adds a transfer's bytes before its first buffer reaches
	// the gate, so with the loop held there the sizes read exactly.
	gate <- struct{}{} // the plug
	onDevice(t, gd, 10)
	if got := counting.BytesRead.Load(); got != (1+4)*bs {
		t.Fatalf("%d blocks issued with the first run on the device, want the plug and 4", got/bs)
	}
	for blk := int64(11); blk <= 14; blk++ {
		gate <- struct{}{}
		onDevice(t, gd, blk)
	}
	if got := counting.BytesRead.Load(); got != (1+4+2)*bs {
		t.Fatalf("%d blocks issued with the second run on the device, want 7: the plug, 4 and 2", got/bs)
	}
	open()
	collect(t, done, 12)
	if st := s.Stats(); st.Reads != 8 || st.Coalesced != 4 || counting.Reads.Load() != 8 {
		t.Fatalf("stats %+v, device reads %d: want 8 transfers (plug, 4, 2, five of 1), 4 coalesced", st, counting.Reads.Load())
	}
}

// TestIdleDiskKeepsPages: one stream's whole ring, a second a page, with
// nothing else pending — what a young stream's ramp issues on an idle
// disk, and more — stays one-page transfers, so a first page that
// arrives while one is on the device waits for one page, not four.
func TestIdleDiskKeepsPages(t *testing.T) {
	gd, gate, open := gated(mem(t, 64))
	counting := blockdev.NewCounting(gd)
	s := iosched.New(counting, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(7000, 0)
	done := make(chan *iosched.Request, 8)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base})
	onDevice(t, gd, 0)
	stream(s, done, 10, 4, base.Add(10*time.Second))
	gate <- struct{}{} // the plug
	onDevice(t, gd, 10)
	s.Submit(&iosched.Request{Off: 30 * bs, Buf: make([]byte, bs), C: done, Deadline: base})
	open()
	collect(t, done, 6)

	want := []int64{0, 10 * bs, 30 * bs, 11 * bs, 12 * bs, 13 * bs}
	if got := gd.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v: the due block 30 goes right after the page in flight", got, want)
	}
	if st := s.Stats(); counting.Reads.Load() != 6 || st.Coalesced != 0 {
		t.Fatalf("device reads %d, stats %+v: want 6 one-page transfers", counting.Reads.Load(), st)
	}
}

// callAt waits for the next read to reach the device and checks it starts
// at off, which need not be a block's first byte.
func callAt(t *testing.T, d *gateDev, off int64) {
	t.Helper()
	w := time.NewTimer(10 * time.Second)
	defer w.Stop()
	select {
	case got := <-d.started:
		if got != off {
			t.Fatalf("a read at %d reached the device, want one at %d", got, off)
		}
	case <-w.C:
		t.Fatalf("timed out waiting for the read at %d to reach the device", off)
	}
}

// TestAlone: an Alone request is a transfer by itself. On a contended
// disk, block 10 is read head first — its first eighth Alone, the rest an
// ordinary request submitted with it. The head rides no one's transfer,
// not block 9's, which ends where it begins; it takes no riders, not the
// rest, which begins where it ends; and it completes before the rest is
// read. The rest, in the head's band, is the next pick — ahead of block 20,
// of the same band — and leads a transfer of four with the stream queued
// behind it.
func TestAlone(t *testing.T) {
	gd, gate, open := gated(numbered(t, 64))
	counting := blockdev.NewCounting(gd)
	s := iosched.New(counting, iosched.Options{})
	defer s.Close()
	defer open()

	const headLen = bs / 8
	base := time.Unix(9100, 0)
	done := make(chan *iosched.Request, 16)
	headDone := make(chan *iosched.Request, 1)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base})
	onDevice(t, gd, 0)
	stream(s, done, 9, 1, base)
	head := &iosched.Request{Off: 10 * bs, Buf: make([]byte, headLen), Deadline: base, C: headDone, Alone: true}
	rest := &iosched.Request{Off: 10*bs + headLen, Buf: make([]byte, bs-headLen), Deadline: base, C: done}
	s.Submit(head, rest)
	stream(s, done, 11, 5, base.Add(time.Second))
	stream(s, done, 20, 1, base)
	for _, blk := range []int64{30, 35, 40, 45, 50} { // the others in line, comfortable and scattered
		s.Submit(&iosched.Request{Off: blk * bs, Buf: make([]byte, bs), C: done, Deadline: base.Add(time.Minute)})
	}

	// Counting adds a transfer's bytes before its first buffer reaches the
	// gate, so with the loop held there the sizes read exactly.
	gate <- struct{}{} // the plug
	onDevice(t, gd, 9)
	if got := counting.BytesRead.Load(); got != 2*bs {
		t.Fatalf("%d bytes issued with block 9 on the device, want the plug and block 9: the head rode its transfer", got)
	}
	gate <- struct{}{} // block 9
	onDevice(t, gd, 10)
	if got := counting.BytesRead.Load(); got != 2*bs+headLen {
		t.Fatalf("%d bytes issued with the head on the device, want 2 blocks and the head alone", got)
	}
	gate <- struct{}{} // the head
	callAt(t, gd, 10*bs+headLen)
	if len(headDone) != 1 {
		t.Fatal("the rest was read before the head completed")
	}
	if got := counting.BytesRead.Load(); got != 2*bs+headLen+(bs-headLen)+3*bs {
		t.Fatalf("%d bytes issued with the rest on the device, want it to lead three riders", got)
	}
	open()
	collect(t, done, 14)

	// The plug; block 9; the head; the rest with 11–13; block 20, the band's
	// last; 14 and 15, a run; the five comfortable ones.
	want := []int64{0, 9 * bs, 10 * bs, 10*bs + headLen, 11 * bs, 12 * bs, 13 * bs, 20 * bs, 14 * bs, 15 * bs, 30 * bs, 35 * bs, 40 * bs, 45 * bs, 50 * bs}
	if got := gd.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v", got, want)
	}
	if st := s.Stats(); st.Reads != 11 || st.Coalesced != 4 || counting.Reads.Load() != st.Reads {
		t.Fatalf("stats %+v, device calls %d: want 11 transfers, one call each, 4 coalesced", st, counting.Reads.Load())
	}
	for _, r := range []*iosched.Request{<-headDone, rest} {
		if r.Err != nil {
			t.Fatalf("read at %d: %v", r.Off, r.Err)
		}
		for _, b := range r.Buf {
			if b != 10 {
				t.Fatalf("the read at %d holds block %d's bytes, want block 10's", r.Off, b)
			}
		}
	}
}

// failAt fails every read of one offset.
type failAt struct {
	blockdev.BlockDevice
	off int64
}

var errMedia = errors.New("media error")

func (d failAt) ReadAt(p []byte, off int64) error {
	if off == d.off {
		return errMedia
	}
	return d.BlockDevice.ReadAt(p, off)
}

// TestRunSharesFate: a device error inside a joined transfer fails all
// of its riders, those past the band as those within it, and a Close
// while that transfer is on the device completes what is still queued
// with ErrClosed.
func TestRunSharesFate(t *testing.T) {
	gd, gate, open := gated(failAt{mem(t, 64), 11 * bs})
	s := iosched.New(gd, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(8000, 0)
	done := make(chan *iosched.Request, 8)
	plug := &iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base}
	s.Submit(plug)
	onDevice(t, gd, 0)
	// Blocks 10 and 11 are of one band; 12 and 13 ride from a second
	// and two later. The other stream waits at block 40.
	run := stream(s, done, 10, 1, base)
	run = append(run, stream(s, done, 11, 3, base)...)
	rest := stream(s, done, 40, 2, base.Add(5*time.Second))
	gate <- struct{}{} // the plug
	onDevice(t, gd, 10)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close() //nolint:errcheck // Close never fails
	}()
	<-s.Quit()
	open()
	collect(t, done, 7)
	<-closed

	if plug.Err != nil {
		t.Fatalf("the plug: %v", plug.Err)
	}
	for _, r := range run {
		if !errors.Is(r.Err, errMedia) {
			t.Errorf("block %d of the failed transfer completed with %v, want the media error", r.Off/bs, r.Err)
		}
	}
	for _, r := range rest {
		if !errors.Is(r.Err, iosched.ErrClosed) {
			t.Errorf("block %d, queued at Close, completed with %v, want ErrClosed", r.Off/bs, r.Err)
		}
	}
	if want, got := []int64{0, 10 * bs, 11 * bs}, gd.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("device saw %v, want %v: the transfer stops at its first failing buffer", got, want)
	}
}

// TestContended: the lock-free read of the run rule counts every request
// not yet completed, the one on the device among them. Behind a plug, a
// disk with four requests in all is not contended, with five it is, and
// once they are served it is not again.
func TestContended(t *testing.T) {
	gd, _, open := gated(mem(t, 64))
	s := iosched.New(gd, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(7000, 0)
	done := make(chan *iosched.Request, 8)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base})
	onDevice(t, gd, 0)
	stream(s, done, 10, 3, base)
	if s.Contended() {
		t.Fatal("contended with four requests outstanding, the plug among them")
	}
	stream(s, done, 20, 1, base)
	if !s.Contended() {
		t.Fatal("not contended with five requests outstanding")
	}
	open()
	collect(t, done, 5)
	if s.Contended() {
		t.Fatal("contended with every request served")
	}
}
