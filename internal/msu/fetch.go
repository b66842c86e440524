package msu

import (
	"fmt"
	"time"

	"calliope/internal/core"
	"calliope/internal/ibtree"
	"calliope/internal/iosched"
	"calliope/internal/queue"
)

// fetcher pipelines a stream's page reads through the per-volume I/O
// schedulers (§2.2.1, §2.3.3): it keeps up to readAheadPages requests
// staged ahead of the cursor, as far as the stream's page budget allows,
// each tagged with the delivery deadline of the page's first packet, so
// the per-disk elevator can order and coalesce across every stream's
// demand; on striped content they fan out across the members. A stream
// has one, for all its cues.
type fetcher struct {
	s     *stream
	pages int64 // total pages in the tree
	next  int64 // next page index to stage
	// primed is set once the first page is in RAM, all of it (see budget).
	primed bool
	// heading is set while the ring's one slot is a first page read head
	// first whose head has not completed: headReq, on headC.
	heading bool
	headReq iosched.Request
	headC   chan *iosched.Request
	// half is set while the ring's one slot is a first page whose head is
	// in — read, or copied from the title's resident head — and whose tail
	// is still on the device (see tail).
	half  bool
	slots [readAheadPages]fetchSlot
	head  int // ring index of the oldest staged slot
	n     int // staged slots
}

// fetchSlot is one staged page: the pinned destination page, the
// scheduler request reading into it, and its completion channel.
type fetchSlot struct {
	idx     int64
	page    *queue.PageRef
	hit     bool // satisfied from the RAM cache, no I/O issued
	pending bool // submitted to a scheduler, completion not yet taken
	err     error
	req     iosched.Request
	c       chan *iosched.Request
}

func newFetcher(s *stream) *fetcher {
	f := &fetcher{s: s, headC: make(chan *iosched.Request, 1)}
	for i := range f.slots {
		f.slots[i].c = make(chan *iosched.Request, 1)
	}
	return f
}

// restart aims the empty ring (abort) at the stream's new cue: the budget
// is one page again until its first is in.
func (f *fetcher) restart() {
	f.pages, f.primed = f.s.cue.tree.Meta().Pages, false
}

// deadline is about when page idx's first packet is due, floored at the
// cue's start: deadlines order scheduler service, they are not hard
// real-time.
func (f *fetcher) deadline(idx int64) time.Time {
	at := time.Duration(idx) * f.s.cue.tree.Length() / time.Duration(f.pages)
	return f.s.epoch.Add(max(0, at-f.s.from))
}

// budget is how many pages the stream may pin right now. It is ramped by
// what has been sent, not by what could be read: one page until the first
// is in RAM, tail and all (nothing queues behind the page a new viewer is
// waiting for), two until a page has gone out in full, one more for each
// page sent after that, up to pageBudget. Every cue — a play, seek, resume
// or speed change — starts again at one (stream.reposition), so a stream
// moved or dropped early has read one or two pages, not a ring of them.
// On a contended disk (iosched.Scheduler.Contended), where staged
// read-ahead rides as runs, a primed stream may stage its whole ring at
// once and pin lendPages past its reservation, if its pool lends them.
func (f *fetcher) budget() int32 {
	s := f.s
	switch {
	case !f.primed:
		return 1
	case s.m.contended(s.spec.Disk):
		return pageBudget + lendPages
	}
	return min(pageBudget, 2+s.sent.Load())
}

// nextPage produces the page NextPage announced: it restarts the
// pipeline if the cursor moved, tops the ring up, waits for the head
// slot's device completion, and attaches the page to the cursor. A first
// page whose head is in RAM is attached as far as its head, and tail takes
// the rest. The page stays pinned against the budget: the caller unpins it
// or hands that on. Returns (nil, nil) only when a command came.
func (f *fetcher) nextPage(cur *ibtree.PageCursor, want int64) (*queue.PageRef, error) {
	s := f.s
	if f.n == 0 || f.slots[f.head].idx != want {
		// First page, or the ring's head is not the page the cursor wants
		// (only after a cached page failed verification, below): restage.
		f.abort()
		f.next = want
	}
	f.fill()
	for f.n == 0 {
		// The budget is spent on pages still being sent: park until the
		// sender gives one back.
		if _, ok := recv(s, s.space); !ok {
			return nil, nil
		}
		f.fill()
	}
	slot := &f.slots[f.head]
	if f.heading {
		req, ok := recv(s, f.headC)
		if !ok {
			return nil, nil
		}
		// A head that failed fails the page, once its rest is done.
		f.heading = false
		slot.err = req.Err
		f.half = req.Err == nil
	}
	if f.half {
		// The head of the first page is in and the rest is on its way:
		// cut what is here. The slot stays staged, and the page stays the
		// ring's, until tail has taken the completion: on any way out
		// before that, abort waits for the device and then unpins.
		buf := slot.page.Bytes()
		ok, aerr := cur.AttachHead(buf, len(buf)/headFraction)
		if aerr == nil && !ok { // impossible: NextPage said this page exists
			aerr = fmt.Errorf("msu: page %d vanished mid-read", want)
		}
		if aerr != nil {
			return nil, aerr
		}
		return slot.page, nil
	}
	if slot.pending { // on a command, abort waits for the device
		req, ok := recv(s, slot.c)
		if !ok {
			return nil, nil
		}
		slot.pending = false
		if slot.err == nil {
			slot.err = req.Err
		}
	}
	page, hit, err := f.pop()
	if err != nil {
		s.unpin(page)
		return nil, err
	}
	ok, aerr := cur.AttachPage(page.Bytes())
	if aerr != nil || !ok {
		s.unpin(page)
		if hit {
			// The cached entry failed verification: purge it and go round
			// again. The ring's head is now past want, so it restages from
			// want, and this time the page misses and is read off the disk.
			s.cache.Invalidate(s.cue.cname, want)
			s.m.logf("stream %d: cached page %d invalid: %v", s.spec.Stream, want, aerr)
			return f.nextPage(cur, want)
		}
		if aerr == nil { // impossible: NextPage said this page exists
			aerr = fmt.Errorf("msu: page %d vanished mid-read", want)
		}
		return nil, aerr
	}
	f.landed(page, want, hit)
	return page, nil
}

// pop takes the ring's head slot, whose read is done with, off the ring.
// The pin on its page is the caller's now.
func (f *fetcher) pop() (page *queue.PageRef, hit bool, err error) {
	slot := &f.slots[f.head]
	page, slot.page = slot.page, nil
	f.head = (f.head + 1) % len(f.slots)
	f.n--
	return page, slot.hit, slot.err
}

// landed books a page in RAM whole and attached: the counters, the cache
// (so a follower never finds half a page there) and the step up in budget.
func (f *fetcher) landed(page *queue.PageRef, idx int64, hit bool) {
	s := f.s
	if hit {
		s.m.obs.cacheHits.Inc()
	} else {
		s.m.obs.pagesRead.Inc()
		if s.cache != nil {
			s.cache.Insert(s.cue.cname, idx, page)
		}
	}
	if f.startsTitle(idx) {
		s.m.keepHead(s.spec.Disk, s.cue.cname, page.Bytes())
	}
	f.primed = true
}

// tail waits for the rest of the first page, whose head nextPage
// attached, and lets the cursor at it; the page is then the caller's, on
// an error too. It does not watch for a command: abort would have to wait
// for the device just as long.
func (f *fetcher) tail(cur *ibtree.PageCursor) error {
	slot := &f.slots[f.head]
	req := <-slot.c
	slot.pending = false
	slot.err = req.Err
	f.half = false
	page, _, err := f.pop()
	if err != nil {
		return err
	}
	cur.Raise(len(page.Bytes()))
	f.landed(page, slot.idx, false)
	return nil
}

// giveBack unpins a page from nextPage that will not be queued — unless it
// is a first page still arriving, which is the ring's until abort.
func (f *fetcher) giveBack(page *queue.PageRef) {
	if !f.half {
		f.s.unpin(page)
	}
}

// fill tops up the ring as far as the budget has room — past the
// stream's reservation, as far as its disk's pool lends.
func (f *fetcher) fill() {
	for f.n < len(f.slots) && f.next < f.pages && f.s.res.Pinned() < f.budget() {
		if !f.issueOne() {
			return
		}
	}
}

// issueOne pins the next page and stages it into the ring's tail slot,
// or reports false if the pin was past the reservation and the pool had
// nothing to lend. A cache hit takes the cached page outright; a miss
// takes a page of the disk's pool — through the cache when there is one,
// so later streams share the read — and submits the read to the owning
// volume's scheduler. Room in the budget is always a page (queue.PagePool).
// A cue's first page is an idle one (cache.Reuse), and arrives by what RAM
// holds of it: all (a hit), its head (the rest is read), or nothing (read
// head first: the head, then the rest, as two requests).
func (f *fetcher) issueOne() bool {
	s := f.s
	if !s.pin() {
		return false
	}
	idx := f.next
	slot := &f.slots[(f.head+f.n)%len(f.slots)]
	*slot = fetchSlot{idx: idx, c: slot.c}
	f.next++
	f.n++
	if s.cache != nil {
		if slot.page = s.cache.Lookup(s.cue.cname, idx); slot.page != nil {
			slot.hit = true
			return true
		}
	}
	switch {
	case s.cache == nil:
		slot.page = s.m.pools[s.spec.Disk].TryGet()
	case f.primed:
		slot.page = s.cache.Alloc()
	default:
		slot.page = s.cache.Reuse()
	}
	buf := slot.page.Bytes()
	slot.req = iosched.Request{Buf: buf, Deadline: f.deadline(idx), C: slot.c}
	var head []byte
	if !f.primed && f.startsTitle(idx) {
		head = s.m.residentHead(s.spec.Disk, s.cue.cname)
	}
	n := len(buf) / headFraction
	switch {
	case f.primed:
		slot.err = s.m.submitRead(s.cue.file, idx, 0, &slot.req)
	case head != nil:
		// The head is in RAM: one copy a start, and the disk is asked for
		// the rest of the same buffer.
		copy(buf, head)
		slot.req.Buf = buf[n:]
		slot.err = s.m.submitRead(s.cue.file, idx, n, &slot.req)
		if f.half = slot.err == nil; f.half {
			s.m.obs.headStarts.Inc()
		}
	default:
		// Head first, so the first packets leave while the rest is still
		// coming off the platter: the head is a transfer of its own, and the
		// rest, submitted with it, is the slot's request as after a copy.
		f.headReq = iosched.Request{Buf: buf[:n], Deadline: slot.req.Deadline, C: f.headC, Alone: true}
		slot.req.Buf = buf[n:]
		slot.err = s.m.submitRead(s.cue.file, idx, 0, &f.headReq, &slot.req)
		f.heading = slot.err == nil
	}
	slot.pending = slot.err == nil
	return true
}

// startsTitle reports whether page idx is the one whose head the MSU
// keeps: the first page of the title itself, not of a companion.
func (f *fetcher) startsTitle(idx int64) bool {
	return idx == 0 && f.s.cue.speed == core.Normal
}

// abort unwinds the ring: it waits out any read in flight (the page is the
// device's until then) and unpins every staged page.
func (f *fetcher) abort() {
	if f.heading {
		<-f.headC
		f.heading = false
	}
	for f.n > 0 {
		slot := &f.slots[f.head]
		if slot.pending {
			<-slot.c
			slot.pending = false
		}
		page, _, _ := f.pop()
		f.s.unpin(page)
	}
	f.half = false
}
