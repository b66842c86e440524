package msu

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"calliope/internal/queue"
)

// sender is the MSU's network process (§2.3), the one consumer of every
// stream's descriptor ring: a heap of the streams with something queued,
// keyed by when their next descriptor is due, and one timer. The pacing is
// a step with no I/O in it (step); nothing blocks the loop but the timer,
// its inbox and the UDP writes, and an end of content goes back to the
// stream's disk process.
type sender struct {
	heap flowHeap
	seq  uint64 // orders flows due at one instant by when they were keyed

	mu    sync.Mutex // a leaf: guards in
	in    inbox
	spare inbox         // the loop's: in's buffers, swapped at each intake
	kick  chan struct{} // in holds something
	quit  chan struct{}
	done  chan struct{}
}

// inbox holds flows put back in (put) and flows to empty (flush).
type inbox struct{ woken, flushes []*flow }

// flow is a playing stream as the sender sees it.
type flow struct {
	s    *stream // nil in the pacing tests
	x    *sender
	ring *queue.SPSC[descriptor]
	res  queue.Reservation // the stream's share of its disk's pool, for its life
	om   *msuMetrics       // its gauges move with res
	sent atomic.Int32      // pages gone out in full this cue (fetcher.budget)
	// space wakes the disk process, parked on a full ring or a spent
	// budget; atEnd hands it the end of content; flushed acks a flush.
	space, atEnd, flushed chan struct{}
	// dry is set while the flow is out of the heap with its ring empty:
	// whichever of the sender and the producer clears it puts the flow
	// back (rekey, put), so one nudge brings it back.
	dry atomic.Bool
	// The cue's pacing base, set before its first descriptor is queued.
	epoch time.Time
	from  time.Duration
	// The sender's own.
	idx     int // in the heap; -1 out of it
	due     time.Time
	seq     uint64
	started bool // a packet of the cue has been written
}

// sending is a descriptor the step took off a ring, and how late it is.
type sending struct {
	f    *flow
	d    descriptor
	late time.Duration
}

func newSender() *sender {
	return &sender{kick: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
}

func (f *flow) init(s *stream, x *sender, om *msuMetrics) {
	f.s, f.x, f.om, f.idx = s, x, om, -1
	f.ring = queue.NewSPSC[descriptor](queueDepth)
	f.space, f.atEnd, f.flushed = make(chan struct{}, 1), make(chan struct{}, 1), make(chan struct{}, 1)
	f.dry.Store(true)
}

// run is the sender's loop, until the MSU closes. A stale timer tick only
// steps again.
func (x *sender) run() {
	defer close(x.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var out []sending
	for {
		var next time.Time
		out, next = x.step(time.Now(), out[:0])
		for _, o := range out {
			switch f, d := o.f, o.d; {
			case d.done:
				f.sent.Add(1)
				f.unpin(d.page)
			case d.eof:
				nudge(f.atEnd)
			default:
				f.s.send(d, o.late)
			}
		}
		if !next.IsZero() {
			timer.Reset(time.Until(next))
		}
		select {
		case <-x.quit:
			return
		case <-x.kick:
			x.intake()
		case <-timer.C:
		}
	}
}

// step takes every descriptor due by now off the rings into out, earliest
// first, flows due at one instant in the order they were keyed. next is
// when the earliest of the rest is due; zero if nothing is queued.
func (x *sender) step(now time.Time, out []sending) (_ []sending, next time.Time) {
	for len(x.heap) > 0 {
		f := x.heap[0]
		if f.due.After(now) {
			return out, f.due
		}
		d, _ := f.ring.Dequeue()
		out = append(out, sending{f, d, now.Sub(f.due)})
		x.rekey(f)
	}
	return out, next
}

// rekey places f by its next descriptor's due time — a done descriptor's
// is its packets' — or, with nothing queued, takes it out of the heap and
// leaves it dry, unless an enqueue got in meanwhile.
func (x *sender) rekey(f *flow) {
	d, ok := f.ring.Peek()
	if !ok {
		f.dry.Store(true)
		if d, ok = f.ring.Peek(); !ok || !f.dry.CompareAndSwap(true, false) {
			x.unheap(f)
			return // put wakes it
		}
	}
	if !d.done {
		f.due = f.epoch.Add(d.t - f.from)
	}
	x.seq++
	f.seq = x.seq
	if f.idx < 0 {
		heap.Push(&x.heap, f)
	} else {
		heap.Fix(&x.heap, f.idx)
	}
}

// unheap takes f out of the heap, if in: keyed earliest, it is popped.
func (x *sender) unheap(f *flow) {
	if f.idx >= 0 {
		f.due, f.seq = time.Time{}, 0
		heap.Fix(&x.heap, f.idx)
		heap.Pop(&x.heap)
	}
}

// intake puts woken flows back in the heap, then empties and acks flushes.
func (x *sender) intake() {
	x.mu.Lock()
	in := x.in
	x.in = x.spare
	x.mu.Unlock()
	for _, f := range in.woken {
		x.rekey(f)
	}
	for _, f := range in.flushes {
		x.empty(f)
		nudge(f.flushed)
	}
	x.spare = inbox{in.woken[:0], in.flushes[:0]}
}

// empty takes f out of the heap and drops what its ring holds.
func (x *sender) empty(f *flow) {
	x.unheap(f)
	for d, ok := f.ring.Dequeue(); ok; d, ok = f.ring.Dequeue() {
		f.drop(d)
	}
	f.dry.Store(true)
	f.started = false
}

// put queues d for the sender, reporting false if the ring is full; the
// enqueue that finds the flow dry puts it back in the heap. Producer side.
func (f *flow) put(d descriptor) bool {
	if !f.ring.Enqueue(d) {
		return false
	}
	if f.dry.CompareAndSwap(true, false) {
		f.x.mu.Lock()
		f.x.in.woken = append(f.x.in.woken, f)
		f.x.mu.Unlock()
		nudge(f.x.kick)
	}
	return true
}

// flush has the sender empty f's ring, and returns once it has. Its
// producer calls it, queueing nothing meanwhile.
func (x *sender) flush(f *flow) {
	x.mu.Lock()
	x.in.flushes = append(x.in.flushes, f)
	x.mu.Unlock()
	nudge(x.kick)
	select {
	case <-f.flushed:
	case <-x.done: // the MSU has closed: the ring is the caller's now
		x.empty(f)
	}
}

// nudge wakes whoever parks on c, a 1-buffered channel, without blocking:
// a nudge is never lost and never waits.
func nudge(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// pin counts one more page against the stream's budget: within its
// reservation always, past it only if the disk's pool lends one.
func (f *flow) pin() bool {
	lent, ok := f.res.Pin()
	if !ok {
		return false
	}
	f.om.pinned.Add(1)
	if lent {
		f.om.lent.Add(1)
	}
	return true
}

// unpin drops the hold that pin counted — the page first, so that room in
// the budget always means room in the pool — and nudges the disk process,
// which may be parked on a spent budget.
func (f *flow) unpin(page *queue.PageRef) {
	page.Release()
	if f.res.Unpin() {
		f.om.lent.Add(-1)
	}
	f.om.pinned.Add(-1)
	nudge(f.space)
}

// drop gives back what a descriptor that will not be sent holds.
func (f *flow) drop(d descriptor) {
	switch {
	case d.done:
		f.unpin(d.page)
	case d.page != nil:
		d.page.Release()
	}
}

// flowHeap orders flows by due time, then by when they were keyed.
type flowHeap []*flow

func (h flowHeap) Len() int { return len(h) }
func (h flowHeap) Less(i, j int) bool {
	return h[i].due.Before(h[j].due) || h[i].due.Equal(h[j].due) && h[i].seq < h[j].seq
}
func (h flowHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *flowHeap) Push(v any) {
	v.(*flow).idx = len(*h)
	*h = append(*h, v.(*flow))
}
func (h *flowHeap) Pop() any {
	n := len(*h) - 1
	f := (*h)[n]
	(*h)[n], *h, f.idx = nil, (*h)[:n], -1
	return f
}
