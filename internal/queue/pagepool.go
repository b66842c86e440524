package queue

import (
	"fmt"
	"sync/atomic"
)

// PagePool is a fixed-size pool of reference-counted page buffers — the
// MSU's "does its own memory management" store (§2.3). The disk process
// fills whole pages from the IB-tree; the network process transmits
// packets straight out of those pages; the page returns to the pool when
// the last reference drops. The pool never grows past its count: Get
// blocks when all pages are in flight. A player's pool is sized to its
// page budget (msu.pageBudget), so it can always hold the bounded
// read-ahead (double buffering) the paper's disk process runs under,
// whatever the cache can spare.
type PagePool struct {
	size int
	free chan *PageRef
	// made counts the pages created so far, at most cap(free): a page's
	// memory is allocated the first time the pool is found empty, so a
	// stream that ends after one page never pays for the rest.
	made atomic.Int32
}

// PageRef is one reference-counted page buffer. A Get hands it out with
// a reference count of one; Retain/Release adjust it, and the final
// Release returns the buffer to its pool. Misuse panics: releasing a
// free page (double put) and reading a free page (use after put) are
// both programming errors on the zero-copy path, never recoverable
// conditions.
type PageRef struct {
	pool *PagePool
	buf  []byte
	refs atomic.Int32
}

// NewPagePool returns a pool of up to count pages of size bytes each.
// Pages are created on first use and recycled from then on, so the
// steady-state data path never allocates.
func NewPagePool(size, count int) (*PagePool, error) {
	if size <= 0 || count <= 0 {
		return nil, fmt.Errorf("queue: invalid page pool size %d x %d", size, count)
	}
	return &PagePool{size: size, free: make(chan *PageRef, count)}, nil
}

// PageSize reports the size of each page in the pool.
func (p *PagePool) PageSize() int { return p.size }

// Cap reports the pool's total page count.
func (p *PagePool) Cap() int { return cap(p.free) }

// Free reports how many pages a caller could take right now: idle ones
// and those not created yet. Pages held by callers (including
// long-lived cache pins) are not free.
func (p *PagePool) Free() int { return cap(p.free) - int(p.made.Load()) + len(p.free) }

// Get returns a page with one reference, blocking until a page is free
// or cancel is closed (nil on cancel). This block is the read-ahead
// bound: a disk process can run at most the pool's page count ahead of
// the network process.
func (p *PagePool) Get(cancel <-chan struct{}) *PageRef {
	if r := p.TryGet(); r != nil {
		return r
	}
	select {
	case r := <-p.free:
		r.refs.Store(1)
		return r
	case <-cancel:
		return nil
	}
}

// TryGet returns a page with one reference, or nil if none is free.
func (p *PagePool) TryGet() *PageRef {
	select {
	case r := <-p.free:
		r.refs.Store(1)
		return r
	default:
	}
	for n := p.made.Load(); int(n) < cap(p.free); n = p.made.Load() {
		if p.made.CompareAndSwap(n, n+1) {
			r := &PageRef{pool: p, buf: make([]byte, p.size)}
			r.refs.Store(1)
			return r
		}
	}
	return nil
}

// Bytes returns the page buffer. The caller must hold a reference.
func (r *PageRef) Bytes() []byte {
	if r.refs.Load() <= 0 {
		panic("queue: PageRef.Bytes on a released page (use after put)")
	}
	return r.buf
}

// Refs reports the current reference count.
func (r *PageRef) Refs() int { return int(r.refs.Load()) }

// Retain adds a reference. The caller must already hold one: retaining
// a page that may concurrently hit zero is a lost race, not a refcount.
func (r *PageRef) Retain() {
	if r.refs.Add(1) <= 1 {
		panic("queue: PageRef.Retain on a released page")
	}
}

// Release drops one reference; the last one returns the page to the
// pool. Releasing a page that is already free panics (double put).
func (r *PageRef) Release() {
	n := r.refs.Add(-1)
	if n < 0 {
		panic("queue: PageRef.Release on a released page (double put)")
	}
	if n == 0 {
		r.pool.free <- r // cannot block: at most count refs exist
	}
}
