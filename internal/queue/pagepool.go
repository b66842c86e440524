package queue

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// PagePool is one disk's page memory — the MSU's "does its own memory
// management" store (§2.3) — shared by the disk's cache and every reader
// of the disk. The disk process fills whole pages from the IB-tree; the
// network process transmits packets straight out of those pages; a page
// returns to the pool when the last reference drops, and is handed out
// again from there.
//
// The pool owns a number of pages of its own (the cache's share) and
// grows by what its readers reserve: its capacity is its own pages plus
// every open Reservation. A page is made only while the pool holds fewer
// than its own pages plus one for each page pinned within the
// reservations, so RAM follows what readers hold and never passes
// capacity; otherwise an idle page is reused, and when none is idle the
// caller's cache evicts one. Closing a reservation is O(1): a pool left
// over capacity sheds the surplus when it next hands a page out.
//
// A reader pins past its reservation only with a page the pool lends,
// and the pool lends at most its own pages. So the pages readers hold
// are at most Σ reservations − 1 + lent ≤ capacity − 1 while any reader
// is below its reservation: that reader always finds an idle page, an
// evictable one or room to make one, and never waits.
type PagePool struct {
	size int
	own  int
	// pins counts the pages pinned through reservations, lent ones
	// included; lent counts those past their reservations, and runs ahead
	// of them by a loan being taken (Reservation.Pin).
	pins atomic.Int32
	lent atomic.Int32

	mu       sync.Mutex
	free     []*PageRef // idle pages, most recently released last
	made     int        // pages in existence: held, cached or idle
	reserved int
}

// PageRef is one reference-counted page buffer. The pool hands it out with
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

// NewPagePool returns a pool of pages of size bytes that owns count of
// them (none is fine: its readers' reservations are then all of it).
// Pages are created on first use and recycled from then on, so the
// steady-state data path never allocates.
func NewPagePool(size, count int) (*PagePool, error) {
	if size <= 0 || count < 0 {
		return nil, fmt.Errorf("queue: invalid page pool size %d x %d", size, count)
	}
	return &PagePool{size: size, own: count}, nil
}

// PageSize reports the size of each page in the pool.
func (p *PagePool) PageSize() int { return p.size }

// Own reports the pages the pool owns beyond its reservations.
func (p *PagePool) Own() int { return p.own }

// Cap reports the pool's capacity: its own pages plus every reservation.
func (p *PagePool) Cap() int { //nolint:testonly // the pool proofs: the cache and msu tests check its page count
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capLocked()
}

func (p *PagePool) capLocked() int { return p.own + p.reserved }

// Made reports how many pages exist: held, cached or idle.
func (p *PagePool) Made() int { //nolint:testonly // the pool proofs: the cache and msu tests check its page count
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.made
}

// Free reports how many pages a caller could take right now: idle ones
// and those the pool may still make. Pages held by callers (including
// long-lived cache pins) are not free.
func (p *PagePool) Free() int { //nolint:testonly // the pool proofs: the cache and msu tests check its page count
	p.mu.Lock()
	defer p.mu.Unlock()
	return max(0, p.roomLocked()) + len(p.free)
}

// Held reports the pages held outside the pool: by readers, or cached.
func (p *PagePool) Held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.made - len(p.free)
}

// roomLocked is how many more pages the pool may make: up to its own
// pages plus one for each page pinned within the reservations.
func (p *PagePool) roomLocked() int {
	return p.own + min(p.reserved, int(p.pins.Load())) - p.made
}

// Surplus reports how many pages the pool holds past its capacity: what
// closed reservations left behind, to be shed at the next hand-out.
func (p *PagePool) Surplus() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.made - p.capLocked()
}

// Lent reports the pages pinned past their reservations.
func (p *PagePool) Lent() int { return int(p.lent.Load()) } //nolint:testonly // the pool proofs: the cache and msu tests check its page count

// TryGet returns a page with one reference: an idle one, or a new one
// while the pool may make one; nil if neither.
func (p *PagePool) TryGet() *PageRef { return p.tryGet(true) }

// TryReuse is TryGet that makes no page: an idle page, or nil.
func (p *PagePool) TryReuse() *PageRef { return p.tryGet(false) }

func (p *PagePool) tryGet(grow bool) *PageRef {
	p.mu.Lock()
	r, grow := p.takeLocked(grow)
	p.mu.Unlock()
	return p.handOut(r, grow)
}

// takeLocked sheds idle pages past capacity and takes the most recently
// released of the rest; with none, it reports whether the caller may
// make a page, and counts it made.
func (p *PagePool) takeLocked(grow bool) (*PageRef, bool) {
	for len(p.free) > 0 {
		n := len(p.free) - 1
		r := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		if p.made <= p.capLocked() {
			return r, false
		}
		p.made-- // past capacity: left to the collector
	}
	if grow && p.roomLocked() > 0 {
		p.made++
		return nil, true
	}
	return nil, false
}

// handOut gives the caller r, or the page takeLocked let it make.
func (p *PagePool) handOut(r *PageRef, grow bool) *PageRef {
	if grow {
		r = &PageRef{pool: p, buf: make([]byte, p.size)}
	}
	if r != nil {
		r.refs.Store(1)
	}
	return r
}

// put takes back a page whose last reference has dropped: idle, or
// dropped if the pool is over capacity.
func (p *PagePool) put(r *PageRef) {
	p.mu.Lock()
	if p.made > p.capLocked() {
		p.made--
	} else {
		p.free = append(p.free, r)
	}
	p.mu.Unlock()
}

// A Reservation is one reader's share of a pool: pages it may always pin,
// and past them pages the pool lends while it has any to lend. Pin and
// Unpin count the pages the reader holds; nothing else does.
type Reservation struct {
	pool   *PagePool
	n      int32
	pinned atomic.Int32
}

// Reserve raises the pool's capacity by n pages and makes r the share
// that holds them, until r.Close. r must not be open.
func (p *PagePool) Reserve(r *Reservation, n int) {
	r.pool, r.n = p, int32(n)
	r.pinned.Store(0)
	p.mu.Lock()
	p.reserved += n
	p.mu.Unlock()
}

// Close gives the reservation's pages back, in O(1): whatever they leave
// the pool holding past its capacity is shed at its next hand-out. The
// reader must hold no page by then.
func (r *Reservation) Close() {
	p := r.pool
	p.mu.Lock()
	p.reserved -= int(r.n)
	p.mu.Unlock()
}

// Pinned reports the pages the reader holds.
func (r *Reservation) Pinned() int32 { return r.pinned.Load() }

// Pin counts one more page against the reservation, ahead of the reader
// taking it from the pool or a cache over it, and reports whether the
// page is lent. Within the reservation it always succeeds; past it, only
// while the pool has a page to lend (ok is false and nothing is counted
// otherwise). One goroutine pins; any may unpin.
func (r *Reservation) Pin() (lent, ok bool) {
	p := r.pool
	if r.pinned.Load() < r.n {
		// Only unpins can race this, and they only lower the count.
		p.pins.Add(1)
		r.pinned.Add(1)
		return false, true
	}
	if !p.borrow() {
		return false, false
	}
	p.pins.Add(1)
	if r.pinned.Add(1) > r.n {
		return true, true
	}
	p.lent.Add(-1) // an unpin got in first: the page is within the reservation after all
	return false, true
}

// Unpin drops what Pin counted, once the page is released, and reports
// whether it was a lent page.
func (r *Reservation) Unpin() (lent bool) {
	p := r.pool
	p.pins.Add(-1)
	if r.pinned.Add(-1) >= r.n {
		p.lent.Add(-1)
		return true
	}
	return false
}

// borrow takes one page of the pool's own on loan, if it has one to lend.
func (p *PagePool) borrow() bool {
	for n := p.lent.Load(); n < int32(p.own); n = p.lent.Load() {
		if p.lent.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
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
		r.pool.put(r)
	}
}
