package iosched_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/iosched"
)

// The tests here are the head-first claims: a request that names a head
// length is read in two back-to-back device calls with a signal between
// them and no pick, so nothing — not a due arrival — comes between the
// head and the rest, riders join the second call under the same cap, and
// whatever becomes of the request its submitter hears once on HeadC and
// then on C.

const headLen = bs / 8

// headed builds a request for block blk that asks to be read head first.
func headed(blk int64, done chan *iosched.Request, deadline time.Time) *iosched.Request {
	return &iosched.Request{
		Off: blk * bs, Buf: make([]byte, bs), Deadline: deadline, C: done,
		Head: headLen, HeadC: make(chan error, 1),
	}
}

// callAt waits for the next device call and checks where it starts.
func callAt(t *testing.T, d *gateDev, off int64) {
	t.Helper()
	w := time.NewTimer(10 * time.Second)
	defer w.Stop()
	select {
	case got := <-d.started:
		if got != off {
			t.Fatalf("a call at %d reached the device, want one at %d", got, off)
		}
	case <-w.C:
		t.Fatalf("timed out waiting for the call at %d to reach the device", off)
	}
}

// heard waits for r's head signal.
func heard(t *testing.T, r *iosched.Request) error {
	t.Helper()
	w := time.NewTimer(10 * time.Second)
	defer w.Stop()
	select {
	case err := <-r.HeadC:
		return err
	case <-w.C:
		t.Fatalf("timed out waiting for block %d's head signal", r.Off/bs)
		return nil
	}
}

// TestHeadFirst: the head is one device call, the signal follows it with
// the head's bytes in and the request not yet complete, and the rest is
// the very next call — a request already due, submitted in between, waits
// for it. The counters say two device calls for the one request.
func TestHeadFirst(t *testing.T) {
	gd, gate, open := gated(numbered(t, 64))
	counting := blockdev.NewCounting(gd)
	now := time.Unix(9000, 0)
	s := iosched.New(counting, iosched.Options{Now: func() time.Time { return now }})
	defer s.Close()
	defer open()

	done := make(chan *iosched.Request, 4)
	lead := headed(10, done, now)
	s.Submit(lead)
	callAt(t, gd, 10*bs)
	select {
	case err := <-lead.HeadC:
		t.Fatalf("head signal (%v) with the head still on the device", err)
	default:
	}
	gate <- struct{}{}
	if err := heard(t, lead); err != nil {
		t.Fatalf("head signal: %v", err)
	}
	callAt(t, gd, 10*bs+headLen) // the rest, parked: nothing completes until it is let go
	if len(done) != 0 {
		t.Fatal("the request completed before its tail was read")
	}
	for i, b := range lead.Buf[:headLen] {
		if b != 10 {
			t.Fatalf("byte %d of the head is %d at the signal, want block 10's", i, b)
		}
	}
	// Due, and at the other end of the disk: it is picked after the tail.
	urgent := &iosched.Request{Off: 50 * bs, Buf: make([]byte, bs), C: done, Deadline: now.Add(-time.Second)}
	s.Submit(urgent)
	open()
	if first := collect(t, done, 2)[0]; first != lead {
		t.Fatal("the due request completed ahead of the transfer it arrived in the middle of")
	}
	if want, got := []int64{10 * bs, 10*bs + headLen, 50 * bs}, gd.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("device calls at %v, want %v", got, want)
	}
	if lead.Err != nil || urgent.Err != nil {
		t.Fatalf("errors %v, %v", lead.Err, urgent.Err)
	}
	for i, b := range lead.Buf {
		if b != 10 {
			t.Fatalf("byte %d of the page is %d, want block 10's", i, b)
		}
	}
	if len(lead.HeadC) != 0 {
		t.Fatal("a second head signal")
	}
	st := s.Stats()
	if st.Requests != 2 || st.Reads != 3 || st.Reads != counting.Reads.Load() || st.Late != 0 {
		t.Fatalf("stats %+v, device calls %d: want 2 requests in 3 calls, none late", st, counting.Reads.Load())
	}
}

// TestHeadFirstRiders: on a contended disk the read-ahead queued behind a
// headed request joins its second call, and the transfer is still four
// requests at most.
func TestHeadFirstRiders(t *testing.T) {
	gd, gate, open := gated(numbered(t, 64))
	counting := blockdev.NewCounting(gd)
	s := iosched.New(counting, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(9100, 0)
	done := make(chan *iosched.Request, 16)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base})
	onDevice(t, gd, 0)
	lead := headed(10, done, base)
	s.Submit(lead)
	riders := stream(s, done, 11, 5, base.Add(time.Second))
	for _, blk := range []int64{30, 35, 40, 45, 50} { // the others in line, comfortable and scattered
		s.Submit(&iosched.Request{Off: blk * bs, Buf: make([]byte, bs), C: done, Deadline: base.Add(time.Minute)})
	}

	// Counting adds a call's bytes before its first buffer reaches the
	// gate, so with the loop held there the sizes read exactly.
	gate <- struct{}{} // the plug
	callAt(t, gd, 10*bs)
	if got := counting.BytesRead.Load(); got != bs+headLen {
		t.Fatalf("%d bytes issued with the head on the device, want the plug and %d", got, headLen)
	}
	gate <- struct{}{} // the head
	if err := heard(t, lead); err != nil {
		t.Fatalf("head signal: %v", err)
	}
	callAt(t, gd, 10*bs+headLen)
	if got := counting.BytesRead.Load(); got != (1+4)*bs {
		t.Fatalf("%d bytes issued with the second call on the device, want the plug and 4 blocks: the tail and three riders", got)
	}
	open()
	collect(t, done, 12)
	// The plug; head and tail+3; blocks 14 and 15 as a run of two; the
	// last five have nobody behind them and go one by one.
	if st := s.Stats(); st.Reads != 9 || st.Coalesced != 4 || counting.Reads.Load() != 9 {
		t.Fatalf("stats %+v, device calls %d: want 9 calls, 4 coalesced", st, counting.Reads.Load())
	}
	for _, r := range append(riders, lead) {
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

// TestHeadFirstSharesFate: a head that fails is the end of the transfer.
// The request and its riders fail alike, nothing more of them is asked of
// the device, and everyone who named a HeadC — the leader, and a rider
// that would have been read whole — hears the error there once, then on C.
func TestHeadFirstSharesFate(t *testing.T) {
	gd, gate, open := gated(failAt{mem(t, 64), 10 * bs})
	s := iosched.New(gd, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(9200, 0)
	done := make(chan *iosched.Request, 8)
	plug := &iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base}
	s.Submit(plug)
	onDevice(t, gd, 0)
	lead, rider := headed(10, done, base), headed(11, done, base)
	s.Submit(lead)
	s.Submit(rider)
	run := append(stream(s, done, 12, 1, base), lead, rider)
	gate <- struct{}{} // the plug
	callAt(t, gd, 10*bs)
	open()
	collect(t, done, 4)

	if plug.Err != nil {
		t.Fatalf("the plug: %v", plug.Err)
	}
	for _, r := range run {
		if !errors.Is(r.Err, errMedia) {
			t.Errorf("block %d of the failed transfer completed with %v, want the media error", r.Off/bs, r.Err)
		}
	}
	for _, r := range []*iosched.Request{lead, rider} {
		if len(r.HeadC) != 1 || !errors.Is(<-r.HeadC, errMedia) {
			t.Errorf("block %d: want the media error on HeadC, once", r.Off/bs)
		}
	}
	if want, got := []int64{0, 10 * bs}, gd.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("device saw %v, want %v: the transfer stops at its failed head", got, want)
	}
	if st := s.Stats(); st.Reads != 2 {
		t.Fatalf("stats %+v: want 2 device calls", st)
	}
}

// TestHeadFirstClose: a Close with the tail on the device lets the
// transfer finish, and completes what is queued — a headed request among
// it — with ErrClosed on both channels.
func TestHeadFirstClose(t *testing.T) {
	gd, gate, open := gated(mem(t, 64))
	s := iosched.New(gd, iosched.Options{})
	defer s.Close()
	defer open()

	base := time.Unix(9300, 0)
	done := make(chan *iosched.Request, 4)
	lead, queued := headed(10, done, base), headed(40, done, base.Add(time.Second))
	s.Submit(lead)
	callAt(t, gd, 10*bs)
	s.Submit(queued)
	gate <- struct{}{} // the head
	if err := heard(t, lead); err != nil {
		t.Fatalf("head signal: %v", err)
	}
	callAt(t, gd, 10*bs+headLen)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close() //nolint:errcheck // Close never fails
	}()
	<-s.Quit()
	open()
	collect(t, done, 2)
	<-closed

	if lead.Err != nil {
		t.Fatalf("the transfer on the device at Close: %v", lead.Err)
	}
	if !errors.Is(queued.Err, iosched.ErrClosed) || len(queued.HeadC) != 1 || !errors.Is(<-queued.HeadC, iosched.ErrClosed) {
		t.Fatalf("the request queued at Close: %v, %d head signals; want ErrClosed on both channels", queued.Err, len(queued.HeadC))
	}
	late := headed(20, done, base)
	s.Submit(late)
	if r := collect(t, done, 1)[0]; !errors.Is(r.Err, iosched.ErrClosed) || !errors.Is(<-late.HeadC, iosched.ErrClosed) {
		t.Fatalf("a request submitted after Close: %v", r.Err)
	}
}
