package iosched_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/iosched"
)

const bs = 4096 // test block size

// gateDev wraps a device, recording the order reads arrive and
// optionally holding every read at a gate: a send on the gate lets one
// read through, closing it lets them all. Submitting a "plug" request
// and holding it at the gate keeps the scheduler's one transfer in
// flight, so everything submitted meanwhile is pending together when it
// picks again — the deterministic way to observe service order.
//
// gateDev deliberately does not implement blockdev.VectorReader, so a
// coalesced transfer falls back to per-buffer reads here and the
// service order of every request stays visible.
type gateDev struct {
	inner   blockdev.BlockDevice
	started chan int64 // receives each read's offset as it arrives, if non-nil; must never fill

	mu   sync.Mutex
	offs []int64
	gate chan struct{} // non-nil: reads wait here before proceeding
}

func (d *gateDev) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	d.offs = append(d.offs, off)
	g := d.gate
	d.mu.Unlock()
	if d.started != nil {
		d.started <- off
	}
	if g != nil {
		<-g
	}
	return d.inner.ReadAt(p, off)
}

func (d *gateDev) WriteAt(p []byte, off int64) error { return d.inner.WriteAt(p, off) }
func (d *gateDev) Size() int64                       { return d.inner.Size() }
func (d *gateDev) Close() error                      { return d.inner.Close() }

func (d *gateDev) order() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int64(nil), d.offs...)
}

func mem(t *testing.T, blocks int64) *blockdev.Mem {
	t.Helper()
	m, err := blockdev.NewMem(blocks * bs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// collect waits for n completions on c with a watchdog.
func collect(t *testing.T, c chan *iosched.Request, n int) []*iosched.Request {
	t.Helper()
	w := time.NewTimer(10 * time.Second)
	defer w.Stop()
	out := make([]*iosched.Request, 0, n)
	for len(out) < n {
		select {
		case r := <-c:
			out = append(out, r)
		case <-w.C:
			t.Fatalf("timed out: %d of %d completions", len(out), n)
		}
	}
	return out
}

// TestCSCANOrder verifies one band is served in C-SCAN order: a single
// ascending sweep from the head position, wrapping once to the lowest
// offsets.
func TestCSCANOrder(t *testing.T) {
	gate := make(chan struct{})
	d := &gateDev{inner: mem(t, 64), gate: gate, started: make(chan int64, 64)}
	s := iosched.New(d, iosched.Options{})
	defer s.Close()

	done := make(chan *iosched.Request, 8)
	plug := &iosched.Request{Off: 5 * bs, Buf: make([]byte, bs), C: done}
	s.Submit(plug)
	<-d.started // the plug is on the device; the loop picks again when it is done

	// Head after the plug sits at block 6. Blocks 6, 8, 10, 14 are at
	// or above it; block 2 is below and must be served after the wrap.
	for _, blk := range []int64{8, 2, 14, 6, 10} {
		s.Submit(&iosched.Request{Off: blk * bs, Buf: make([]byte, bs), C: done})
	}
	close(gate)
	collect(t, done, 6)

	want := []int64{5 * bs, 6 * bs, 8 * bs, 10 * bs, 14 * bs, 2 * bs}
	got := d.order()
	if len(got) != len(want) {
		t.Fatalf("served %d reads, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("service order %v, want %v", got, want)
		}
	}
	st := s.Stats()
	if st.Requests != 6 || st.Rounds != 2 {
		t.Fatalf("stats %+v: want 6 requests in 2 sweeps (one wrap of the head)", st)
	}
}

// TestCoalesce verifies device-adjacent requests of one band become a
// single device transfer that scatters into each request's own buffer.
func TestCoalesce(t *testing.T) {
	gate := make(chan struct{})
	gd := &gateDev{inner: numbered(t, 64), gate: gate, started: make(chan int64, 64)}
	counting := blockdev.NewCounting(gd)
	s := iosched.New(counting, iosched.Options{})
	defer s.Close()

	done := make(chan *iosched.Request, 8)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done})
	<-gd.started

	// Blocks 4..7 are contiguous: one coalesced transfer.
	reqs := make([]*iosched.Request, 4)
	for i := range reqs {
		reqs[i] = &iosched.Request{Off: int64(4+i) * bs, Buf: make([]byte, bs), C: done}
		s.Submit(reqs[i])
	}
	close(gate)
	collect(t, done, 5)

	if got := counting.Reads.Load(); got != 2 {
		t.Fatalf("device saw %d reads, want 2 (plug + one coalesced transfer)", got)
	}
	st := s.Stats()
	if st.Reads != 2 || st.Coalesced != 3 {
		t.Fatalf("stats %+v: want 2 reads, 3 coalesced", st)
	}
	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		for _, b := range r.Buf {
			if b != byte(4+i) {
				t.Fatalf("request %d buffer got byte %d, want %d: scatter broke", i, b, 4+i)
			}
		}
	}
}

// TestDeadlineBoundsRound verifies a tight-deadline arrival is never
// parked behind a full elevator sweep of comfortable requests: a pick
// is bounded by the most urgent deadline plus Slack, so the far
// requests are served after it, in their own ascending sweep.
func TestDeadlineBoundsRound(t *testing.T) {
	gate := make(chan struct{})
	d := &gateDev{inner: mem(t, 64), gate: gate, started: make(chan int64, 64)}
	s := iosched.New(d, iosched.Options{})
	defer s.Close()

	base := time.Unix(1000, 0)
	done := make(chan *iosched.Request, 16)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: base})
	<-d.started

	// Eight comfortable requests on low blocks — a pure elevator from
	// head=1 would sweep them all before reaching block 50.
	for blk := int64(1); blk <= 8; blk++ {
		s.Submit(&iosched.Request{Off: blk * bs, Buf: make([]byte, bs), C: done, Deadline: base.Add(10 * time.Second)})
	}
	tight := &iosched.Request{Off: 50 * bs, Buf: make([]byte, bs), C: done, Deadline: base}
	s.Submit(tight)
	close(gate)
	collect(t, done, 10)

	want := []int64{0, 50 * bs}
	for blk := int64(1); blk <= 8; blk++ {
		want = append(want, blk*bs)
	}
	if got := d.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v (the plug, the tight block 50, then the comfortable ones ascending)", got, want)
	}
}

// TestUrgentCutsIn verifies the scheduler picks again after every
// transfer: a request that is already due when it arrives waits for the
// one transfer in flight, not for the sweep of comfortable read-ahead
// that was queued before it.
func TestUrgentCutsIn(t *testing.T) {
	gate := make(chan struct{})
	d := &gateDev{inner: mem(t, 64), gate: gate, started: make(chan int64, 64)}
	s := iosched.New(d, iosched.Options{})
	defer s.Close()

	base := time.Unix(1500, 0)
	comfortable := base.Add(10 * time.Second)
	done := make(chan *iosched.Request, 8)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: comfortable})
	<-d.started
	// Five comfortable requests of one band, pending together.
	for _, blk := range []int64{10, 20, 30, 40, 50} {
		s.Submit(&iosched.Request{Off: blk * bs, Buf: make([]byte, bs), C: done, Deadline: comfortable})
	}
	gate <- struct{}{} // the plug completes
	if off := <-d.started; off != 10*bs {
		t.Fatalf("first of the band in service is block %d, want 10", off/bs)
	}
	// Block 10 is on the device when a stream's first page arrives.
	s.Submit(&iosched.Request{Off: 5 * bs, Buf: make([]byte, bs), C: done, Deadline: base})
	close(gate)
	collect(t, done, 7)

	want := []int64{0, 10 * bs, 5 * bs, 20 * bs, 30 * bs, 40 * bs, 50 * bs}
	if got := d.order(); !reflect.DeepEqual(got, want) {
		t.Fatalf("service order %v, want %v: the urgent block 5 must be the transfer after the one in flight", got, want)
	}
}

// TestNoStarvation floods the scheduler from concurrent submitters with
// random offsets and deadlines; every request must complete.
func TestNoStarvation(t *testing.T) {
	d := mem(t, 256)
	s := iosched.New(d, iosched.Options{})
	defer s.Close()

	const submitters, perSubmitter = 8, 32
	base := time.Unix(2000, 0)
	done := make(chan *iosched.Request, submitters*perSubmitter)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter; i++ {
				s.Submit(&iosched.Request{
					Off:      rng.Int63n(256) * bs,
					Buf:      make([]byte, bs),
					Deadline: base.Add(time.Duration(rng.Int63n(int64(10 * time.Second)))),
					C:        done,
				})
			}
		}(int64(g))
	}
	wg.Wait()
	for _, r := range collect(t, done, submitters*perSubmitter) {
		if r.Err != nil {
			t.Fatalf("request at %d failed: %v", r.Off, r.Err)
		}
	}
	if st := s.Stats(); st.Requests != submitters*perSubmitter {
		t.Fatalf("stats %+v: want %d requests", st, submitters*perSubmitter)
	}
}

// TestLateness verifies deadline-lateness accounting against the
// injected clock: read-ahead that completes after its deadline is late;
// a request that was already due when it was submitted (every stream's
// first page) is urgent, not late, however long it then takes.
func TestLateness(t *testing.T) {
	base := time.Unix(3000, 0)
	var elapsed atomic.Int64
	gate := make(chan struct{})
	d := &gateDev{inner: mem(t, 8), gate: gate, started: make(chan int64, 8)}
	s := iosched.New(d, iosched.Options{Now: func() time.Time { return base.Add(time.Duration(elapsed.Load())) }})
	defer s.Close()
	done := make(chan *iosched.Request, 1)
	// serve submits one request and lets its transfer finish at base+finish.
	serve := func(deadline time.Time, finish time.Duration) {
		s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done, Deadline: deadline})
		<-d.started
		elapsed.Store(int64(finish))
		gate <- struct{}{}
		collect(t, done, 1)
	}
	serve(base.Add(time.Second), 3*time.Second) // due in 1 s, done at 3 s
	if st := s.Stats(); st.Late != 1 || st.MaxLateMs != 2000 {
		t.Fatalf("stats %+v: want 1 late completion, 2000ms max", st)
	}
	serve(base, 9*time.Second)                      // due 3 s before it was submitted
	serve(base.Add(20*time.Second), 10*time.Second) // done with 10 s to spare
	if st := s.Stats(); st.Requests != 3 || st.Late != 1 || st.MaxLateMs != 2000 {
		t.Fatalf("stats %+v: an already-due request and an early one must not count as late", st)
	}
}

// TestSubmitAfterClose verifies a post-Close submission completes
// immediately with ErrClosed, and that Close is idempotent.
func TestSubmitAfterClose(t *testing.T) {
	s := iosched.New(mem(t, 8), iosched.Options{})
	done := make(chan *iosched.Request, 1)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done})
	collect(t, done, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := &iosched.Request{Off: 0, Buf: make([]byte, bs), C: done}
	s.Submit(r)
	if got := collect(t, done, 1)[0]; !errors.Is(got.Err, iosched.ErrClosed) {
		t.Fatalf("post-close submit completed with %v, want ErrClosed", got.Err)
	}
}

// TestCloseCompletesPending races Close against a parked queue: every
// request must still complete — served, or failed with ErrClosed — and
// Close must return. This is the guarantee player teardown leans on.
func TestCloseCompletesPending(t *testing.T) {
	gate := make(chan struct{})
	d := &gateDev{inner: mem(t, 64), gate: gate, started: make(chan int64, 64)}
	s := iosched.New(d, iosched.Options{})

	done := make(chan *iosched.Request, 16)
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs), C: done})
	<-d.started
	for blk := int64(1); blk <= 8; blk++ {
		s.Submit(&iosched.Request{Off: blk * bs, Buf: make([]byte, bs), C: done})
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		s.Close() //nolint:errcheck // Close never fails
	}()
	close(gate)
	for _, r := range collect(t, done, 9) {
		if r.Err != nil && !errors.Is(r.Err, iosched.ErrClosed) {
			t.Fatalf("request at %d: %v", r.Off, r.Err)
		}
	}
	w := time.NewTimer(10 * time.Second)
	defer w.Stop()
	select {
	case <-closed:
	case <-w.C:
		t.Fatal("Close did not return")
	}
}

// TestIdleSchedulerClose verifies a never-used scheduler closes without
// having started goroutines.
func TestIdleSchedulerClose(t *testing.T) {
	s := iosched.New(mem(t, 8), iosched.Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitPanicsWithoutChannel verifies the misuse guard: a request
// needs a buffered completion channel.
func TestSubmitPanicsWithoutChannel(t *testing.T) {
	s := iosched.New(mem(t, 8), iosched.Options{})
	defer s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit with nil C did not panic")
		}
	}()
	s.Submit(&iosched.Request{Off: 0, Buf: make([]byte, bs)})
}
