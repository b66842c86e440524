// Package a exercises the pageref analyzer: every shape of losing a
// pinned page (dropped result, early return, error path, late defer,
// retain without release) and every shape of a legitimate hand-off
// (return, call argument, channel send, composite literal, store,
// goroutine capture, defer, nil guard).
package a

import (
	"errors"

	"internal/cache"
	"internal/iosched"
	"internal/queue"
)

func step() error              { return nil }
func sinkRef(r *queue.PageRef) {}

type descriptor struct {
	block int64
	page  *queue.PageRef
}

// --- violations ---

// Shape 1: acquire result dropped on the floor.
func dropped(pool *queue.PagePool) {
	pool.TryGet()     // want `result of PagePool.TryGet is dropped`
	_ = pool.Get(nil) // want `result of PagePool.Get is dropped`
}

// Shape 2: early return leaks the pin.
func earlyReturn(pool *queue.PagePool, cond bool) {
	page := pool.Get(nil)
	if cond {
		return // want `page from PagePool.Get .* not released or handed off on this return path`
	}
	page.Release()
}

// Shape 3: error path leaks the pin.
func errorPath(pool *queue.PagePool) error {
	page := pool.TryGet()
	if page == nil {
		return errors.New("pool dry") // nil-guarded: nothing to release
	}
	if err := step(); err != nil {
		return err // want `page from PagePool.TryGet .* not released or handed off on this return path`
	}
	page.Release()
	return nil
}

// Shape 4: pin acquired but never released or handed off at all.
func neverReleased(c *cache.Cache) {
	page := c.Alloc() // want `page from Cache.Alloc is never released or handed off`
	_ = page.Bytes()
}

// Shape 4b: the other hand-outs pin too — a page reused for a start, or
// an idle one, leaked on the way out like any other.
func reusedLeak(c *cache.Cache, pool *queue.PagePool, cond bool) error {
	pool.TryReuse() // want `result of PagePool.TryReuse is dropped`
	page := c.Reuse()
	if cond {
		return errors.New("no start") // want `page from Cache.Reuse .* not released or handed off on this return path`
	}
	sinkRef(page)
	return nil
}

// Shape 5: defer registered after the leaky return.
func deferTooLate(pool *queue.PagePool, cond bool) {
	page := pool.Get(nil)
	if cond {
		return // want `page from PagePool.Get .* not released or handed off on this return path`
	}
	defer page.Release()
	_ = page.Bytes()
}

// Shape 6: Retain pin without a matching release on the early return.
func retainLeak(r *queue.PageRef, cond bool) {
	r.Retain()
	if cond {
		return // want `page from PageRef.Retain .* not released or handed off on this return path`
	}
	r.Release()
}

// Shape 7: acquire inside a spawned goroutine must balance inside it.
func goroutineLeak(pool *queue.PagePool) {
	go func() {
		page := pool.Get(nil) // want `page from PagePool.Get is never released or handed off`
		_ = page.Bytes()
	}()
}

// Shape 8: hand-off on one arm, leak on the other.
func halfHandoff(pool *queue.PagePool, ch chan *queue.PageRef, ok bool) error {
	page := pool.TryGet()
	if ok {
		ch <- page
	} else {
		return errors.New("no consumer") // want `page from PagePool.TryGet .* not released or handed off on this return path`
	}
	return nil
}

// --- clean patterns ---

// Returning the ref hands it to the caller.
func handoffReturn(pool *queue.PagePool) *queue.PageRef {
	page := pool.Get(nil)
	return page
}

// Passing the ref as a call argument hands it off.
func handoffArg(c *cache.Cache, pool *queue.PagePool) {
	page := pool.TryGet()
	c.Insert("clip", 7, page)
}

// Sending the ref, or embedding it in a sent descriptor, hands it off.
func handoffSend(pool *queue.PagePool, ch chan *queue.PageRef, q chan descriptor) {
	a := pool.TryGet()
	ch <- a
	b := pool.TryGet()
	q <- descriptor{block: 3, page: b}
}

// Storing the ref in a field keeps it reachable for a later release.
func handoffStore(pool *queue.PagePool, d *descriptor) {
	d.page = pool.TryGet()
	other := pool.TryGet()
	d.page = other
}

// A deferred release covers every return after it.
func deferRelease(pool *queue.PagePool, cond bool) {
	page := pool.Get(nil)
	defer page.Release()
	if cond {
		return
	}
	_ = page.Bytes()
}

// Capture by a goroutine hands the pin to the closure.
func goroutineCapture(pool *queue.PagePool) {
	page := pool.Get(nil)
	go func() {
		_ = page.Bytes()
		page.Release()
	}()
}

// The cache lookup-hit idiom: release on the miss path, return on hit.
func lookupHit(c *cache.Cache) []byte {
	if hit := c.Lookup("clip", 1); hit != nil {
		b := hit.Bytes()
		hit.Release()
		return b
	}
	return nil
}

// A nil-guarded return has nothing to release.
func nilGuard(pool *queue.PagePool) *queue.PageRef {
	page := pool.TryGet()
	if page == nil {
		return nil
	}
	return page
}

// Release on the error path, hand-off on success.
func balanced(pool *queue.PagePool) (*queue.PageRef, error) {
	page := pool.Get(nil)
	if page == nil {
		return nil, errors.New("cancelled")
	}
	if err := step(); err != nil {
		page.Release()
		return nil, err
	}
	return page, nil
}

// Retain then store: the extra pin is owned by the table entry.
func retainStore(r *queue.PageRef, table map[int64]*queue.PageRef) {
	r.Retain()
	table[9] = r
}

// A return in the arm opposite the acquisition is unreachable from it.
func exclusiveArms(pool *queue.PagePool, cond bool) error {
	if cond {
		p := pool.TryGet()
		p.Release()
	} else {
		return errors.New("disabled")
	}
	return nil
}

// Submitting a read into the page's buffer hands the pin to the I/O
// scheduler: the submitter keeps it pinned until completion arrives on
// Request.C, so a mention buried inside the Request literal counts.
func handoffSubmit(pool *queue.PagePool, s *iosched.Scheduler, c chan *iosched.Request) {
	page := pool.TryGet()
	s.Submit(&iosched.Request{Off: 0, Buf: page.Bytes(), C: c})
}

type notScheduler struct{}

func (notScheduler) Submit(b []byte) {}

// A Submit on some other type is not the scheduler hand-off: a page
// mentioned only as a method receiver stays this function's problem.
func fakeSubmit(pool *queue.PagePool, o notScheduler) {
	page := pool.TryGet() // want `page from PagePool.TryGet is never released or handed off`
	o.Submit(page.Bytes())
}

// Suppression with justification is honored.
func suppressed(pool *queue.PagePool) {
	pool.TryGet() //nolint:pageref // leak is the point of this fixture
}

// Pre-registered instrument handles, as the obs metrics structs hold.
type counter struct{}

func (c *counter) inc() {}

// The instrumented delivery-loop shape: counters observed after the
// release must not confuse the tracker — the pin is balanced, the
// instrument calls are unrelated to the page's lifetime.
func releaseThenObserve(pool *queue.PagePool, pkts, bytes *counter) {
	page := pool.Get(nil)
	_ = page.Bytes()
	page.Release()
	pkts.inc()
	bytes.inc()
}

// Observing between acquire and a hand-off is equally clean.
func observeThenHandoff(pool *queue.PagePool, hits *counter, ch chan *queue.PageRef) {
	page := pool.TryGet()
	hits.inc()
	ch <- page
}
