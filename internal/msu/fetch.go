package msu

import (
	"fmt"
	"time"

	"calliope/internal/core"
	"calliope/internal/ibtree"
	"calliope/internal/iosched"
	"calliope/internal/queue"
)

// fetcher pipelines a player's page reads through the per-volume I/O
// schedulers (§2.2.1, §2.3.3): it keeps up to readAheadPages requests
// staged ahead of the cursor, as far as the player's page budget allows,
// each tagged with the delivery deadline of the page's first packet, so
// the per-disk elevator can order and coalesce across every concurrent
// player's demand. On striped content consecutive pages land on
// adjacent volumes, so the staged requests fan out across
// min(readAheadPages, width) disks in parallel.
type fetcher struct {
	p     *player
	pages int64 // total pages in the tree
	next  int64 // next page index to stage
	// primed is set once the first page is in RAM, all of it (see budget).
	primed bool
	// heading is set while the ring's one slot is a first page read head
	// first whose head has not completed: headReq, on the stream's headC.
	heading bool
	headReq iosched.Request
	// half is set while the ring's one slot is a first page whose head is
	// in — read, or copied from the title's resident head — and whose tail
	// is still on the device (see tail).
	half bool
	// pageDur approximates one page's play time, for deadlines; epoch
	// anchors them to the delivery timeline (an estimate of netLoop's
	// epoch — deadlines order scheduler service, they are not
	// hard real-time).
	pageDur time.Duration
	epoch   time.Time
	slots   []fetchSlot
	head    int // ring index of the oldest staged slot
	n       int // staged slots
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

// newFetchSlots makes a stream's fetch slots, with their completion
// channels; its players take turns with them (stream.slots).
func newFetchSlots() []fetchSlot {
	slots := make([]fetchSlot, readAheadPages)
	for i := range slots {
		slots[i].c = make(chan *iosched.Request, 1)
	}
	return slots
}

// newFetcher builds the player's prefetch ring over its stream's slots,
// which the previous player left empty (abort).
func newFetcher(p *player) *fetcher {
	pages := p.tree.Meta().Pages
	f := &fetcher{
		p:     p,
		pages: pages,
		epoch: time.Now(),
		slots: p.s.slots,
	}
	if pages > 0 {
		f.pageDur = p.tree.Length() / time.Duration(pages)
	}
	return f
}

// deadline is the delivery time of page idx's first packet on the
// stream clock: the fetcher's epoch plus the page's content time
// relative to the start position, floored at the epoch (pages at or
// before the start are wanted immediately).
func (f *fetcher) deadline(idx int64) time.Time {
	d := time.Duration(idx)*f.pageDur - f.p.startPos
	if d < 0 {
		d = 0
	}
	return f.epoch.Add(d)
}

// budget is how many pages the player may pin right now. It is ramped
// by what has been sent, not by what could be read: one page until the
// first is in RAM, tail and all (nothing queues behind the page a new
// viewer is waiting for), two until a page has gone out in full, one more for
// each page sent after that, up to pageBudget. A seek, resume or speed
// change is a fresh player and starts again at one, so a stream that is
// moved or dropped early has read one or two pages, not a ring of them.
// The ramp yields to contention: on a disk with more requests
// outstanding than one transfer carries, where staged read-ahead rides
// as runs (iosched.Scheduler.Contended), a primed player may stage its
// whole ring at once and pin lendPages past its reservation, if its pool
// has them to lend (fill).
func (f *fetcher) budget() int32 {
	p := f.p
	switch {
	case !f.primed:
		return 1
	case p.s.m.contended(p.s.spec.Disk):
		return pageBudget + lendPages
	}
	return min(pageBudget, 2+p.sent.Load())
}

// nextPage produces the page NextPage announced: it restarts the
// pipeline if the cursor moved, tops the ring up, waits for the head
// slot's device completion, and attaches the page to the cursor. A first
// page whose head is in RAM — copied, or read head first and completed —
// is attached as far as its head, and tail takes the rest. The page it
// returns stays pinned against the budget: the caller unpins it or hands
// that on. Returns (nil, nil) only when cancelled.
func (f *fetcher) nextPage(cur *ibtree.PageCursor, want int64) (*queue.PageRef, error) {
	p := f.p
	if f.n == 0 || f.slots[f.head].idx != want {
		// First page, or the ring's head is not the page the cursor wants
		// (players are sequential, so that is only after a cached page
		// failed verification, below): restage at want.
		f.abort()
		f.next = want
	}
	f.fill()
	for f.n == 0 {
		// The budget is spent on pages still being sent: park until the
		// network process gives one back.
		select {
		case <-p.cancel:
			return nil, nil
		case <-p.space:
		}
		f.fill()
	}
	slot := &f.slots[f.head]
	if f.heading {
		select {
		case <-p.cancel:
			return nil, nil
		case req := <-p.s.headC:
			// A head that failed fails the page, once its rest is done.
			f.heading = false
			slot.err = req.Err
			f.half = req.Err == nil
		}
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
	if slot.pending {
		select {
		case <-p.cancel:
			// The buffer belongs to the scheduler until completion:
			// abort (deferred in diskLoop) waits before releasing.
			return nil, nil
		case req := <-slot.c:
			slot.pending = false
			if slot.err == nil {
				slot.err = req.Err
			}
		}
	}
	page, hit, err := f.pop()
	if err != nil {
		p.unpin(page)
		return nil, err
	}
	ok, aerr := cur.AttachPage(page.Bytes())
	if aerr != nil || !ok {
		p.unpin(page)
		if hit {
			// The cached entry failed verification: purge it and go round
			// again. The ring's head is now past want, so it restages from
			// want, and this time the page misses and is read off the disk.
			p.cache.Invalidate(p.cname, want)
			p.s.m.logf("stream %d: cached page %d invalid: %v", p.s.spec.Stream, want, aerr)
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

// landed books a page that is in RAM whole and attached: the counters,
// the cache — every page read is one of the cache's pool's, and goes in
// now, so a follower never finds half a page there — and the step up in
// budget.
func (f *fetcher) landed(page *queue.PageRef, idx int64, hit bool) {
	p := f.p
	if hit {
		p.s.m.obs.cacheHits.Inc()
	} else {
		p.s.m.obs.pagesRead.Inc()
		if p.cache != nil {
			p.cache.Insert(p.cname, idx, page)
		}
	}
	if f.startsTitle(idx) {
		p.s.m.keepHead(p.s.spec.Disk, p.cname, page.Bytes())
	}
	f.primed = true
}

// tail waits for the rest of the first page, whose head nextPage
// attached, and lets the cursor at it. From here the page is the
// caller's to unpin or hand on, as after nextPage — on an error too.
// It does not watch for a cancel: the page is the scheduler's until the
// device is done with it, and abort would have to wait just as long.
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

// giveBack unpins a page the disk process got from nextPage and will not
// queue — unless it is a first page still arriving, which is the ring's
// (and, under it, the scheduler's) until abort.
func (f *fetcher) giveBack(page *queue.PageRef) {
	if !f.half {
		f.p.unpin(page)
	}
}

// fill tops up the ring as far as the budget has room — past the
// player's reservation, as far as its disk's pool lends.
func (f *fetcher) fill() {
	for f.n < len(f.slots) && f.next < f.pages && f.p.res.Pinned() < f.budget() {
		if !f.issueOne() {
			return
		}
	}
}

// issueOne pins the next page and stages it into the ring's tail slot,
// or reports false if the pin was past the reservation and the pool had
// nothing to lend. A cache hit takes the cached page outright; a miss
// takes a page of the disk's pool — through the cache when there is one,
// so later players share the read — and submits the read to the owning
// volume's scheduler. Room in the budget is always a page (queue.PagePool),
// and a player's first page is an idle one wherever one is (cache.Reuse).
// The page a viewer is waiting on arrives by what RAM holds of it: all (a
// hit), its head (the rest is read), or nothing (it is read head first:
// the head, then the rest, as two requests).
func (f *fetcher) issueOne() bool {
	p := f.p
	if !p.pin() {
		return false
	}
	idx := f.next
	slot := &f.slots[(f.head+f.n)%len(f.slots)]
	*slot = fetchSlot{idx: idx, c: slot.c}
	f.next++
	f.n++
	if p.cache != nil {
		if slot.page = p.cache.Lookup(p.cname, idx); slot.page != nil {
			slot.hit = true
			return true
		}
	}
	switch {
	case p.cache == nil:
		slot.page = p.pool.TryGet()
	case f.primed:
		slot.page = p.cache.Alloc()
	default:
		slot.page = p.cache.Reuse()
	}
	buf := slot.page.Bytes()
	slot.req = iosched.Request{Buf: buf, Deadline: f.deadline(idx), C: slot.c}
	var head []byte
	if !f.primed && f.startsTitle(idx) {
		head = p.s.m.residentHead(p.s.spec.Disk, p.cname)
	}
	n := len(buf) / headFraction
	switch {
	case f.primed:
		slot.err = p.s.m.submitRead(p.file, idx, 0, &slot.req)
	case head != nil:
		// The head is in RAM: one copy a start, and the disk is asked for
		// the rest of the same buffer.
		copy(buf, head)
		slot.req.Buf = buf[n:]
		slot.err = p.s.m.submitRead(p.file, idx, n, &slot.req)
		if f.half = slot.err == nil; f.half {
			p.s.m.obs.headStarts.Inc()
		}
	default:
		// Head first, so the first packets leave while the rest is still
		// coming off the platter: the head is a transfer of its own, and the
		// rest, submitted with it, is the slot's request as after a copy.
		if p.s.headC == nil {
			p.s.headC = make(chan *iosched.Request, 1)
		}
		f.headReq = iosched.Request{Buf: buf[:n], Deadline: slot.req.Deadline, C: p.s.headC, Alone: true}
		slot.req.Buf = buf[n:]
		slot.err = p.s.m.submitRead(p.file, idx, 0, &f.headReq, &slot.req)
		f.heading = slot.err == nil
	}
	slot.pending = slot.err == nil
	return true
}

// startsTitle reports whether page idx is the one whose head the MSU
// keeps: the first page of the title itself, not of a companion.
func (f *fetcher) startsTitle(idx int64) bool {
	return idx == 0 && f.p.speed == core.Normal
}

// abort unwinds the ring: it waits out any in-flight scheduler request
// (the destination page is not reusable until the device is done with
// it) and unpins every staged page.
func (f *fetcher) abort() {
	if f.heading {
		<-f.p.s.headC
		f.heading = false
	}
	for f.n > 0 {
		slot := &f.slots[f.head]
		if slot.pending {
			<-slot.c
			slot.pending = false
		}
		page, _, _ := f.pop()
		f.p.unpin(page)
	}
	f.half = false
}
