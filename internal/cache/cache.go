// Package cache implements the MSU's RAM interval cache for hot
// content: a bounded, refcounted, page-granular store of IB-tree data
// pages shared by every player on the MSU.
//
// The paper's admission model (§2.2) charges every client one disk
// duty-cycle slot per cycle, even when dozens of them replay the same
// hot title. Interval/prefix caching with popularity-aware eviction
// (Jayarekha & Nair) multiplies effective capacity: a page read once
// for a leading player stays in RAM and is pinned — not copied — by
// every follower, so their streams cost no disk I/O at all. The
// Coordinator learns per-content coverage from MSU cache reports and
// stops charging disk slots for warmly cached titles.
//
// Pages live in the disk's one queue.PagePool, which the cache shares
// with its readers: the pool's own pages are the cache's, and each
// reader's reservation rides on top. A cached page is an ordinary PageRef
// on which the cache holds one long-lived reference; a hit retains it
// again and hands it to the disk goroutine, whose descriptors alias the
// page memory all the way to the UDP write — the zero-copy contract of
// internal/queue is preserved end to end. When the pool has no idle page
// and may make none, Alloc evicts (interval-aware, then
// LRU-by-content-heat) and reuses the victim; pages still referenced by
// in-flight descriptors are never victims.
package cache

import (
	"sort"
	"sync"

	"calliope/internal/queue"
	"calliope/internal/trace"
)

// prefixPages is the number of leading pages per content that evict
// last while the content has players: the Jayarekha/Nair prefix, kept
// so a newly admitted player starts from RAM even when it joins ahead
// of the current interval.
const prefixPages = 2

// key identifies one cached data page.
type key struct {
	name string // content (file) name within the store
	page int64  // IB-tree data page index
}

// entry is one cached page. The cache's own reference keeps ref alive;
// hits add references on top of it.
type entry struct {
	ref  *queue.PageRef
	tick uint64 // last hit (or insert), for LRU within a tier
}

// content aggregates per-title state: how much of it is cached and
// where its active players currently read — the interval the eviction
// policy protects.
type content struct {
	totalPages int64
	players    map[uint64]int64 // player id → current page index
	cached     int64
	tick       uint64 // last player activity, for content-heat LRU
}

// Cache is the per-logical-disk interval cache. All methods are safe
// for concurrent use by many player goroutines.
type Cache struct {
	pool *queue.PagePool

	mu       sync.Mutex
	entries  map[key]*entry
	contents map[string]*content
	tick     uint64
	stats    trace.CacheStats
}

// New builds a cache over pool. The pool's own pages are the cache's RAM
// budget; the cache never allocates page memory of its own. The pool
// may be shared with direct Get/TryGet callers — their pages simply
// stay out of the cache until released.
func New(pool *queue.PagePool) *Cache {
	return &Cache{
		pool:     pool,
		entries:  make(map[key]*entry),
		contents: make(map[string]*content),
	}
}

// PageSize reports the size of the pages the cache stores.
func (c *Cache) PageSize() int { return c.pool.PageSize() }

// Pages reports the cache's page budget: the pool's own pages.
func (c *Cache) Pages() int { return c.pool.Own() }

// Lookup returns the cached page for (name, page) with one extra
// reference — the caller releases it when its descriptors are done —
// or nil on a miss. The hit path performs no allocation and no copy.
func (c *Cache) Lookup(name string, page int64) *queue.PageRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key{name, page}]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.tick++
	e.tick = c.tick
	if ct := c.contents[name]; ct != nil {
		ct.tick = c.tick
	}
	e.ref.Retain()
	c.stats.Hits++
	return e.ref
}

// Alloc returns a page for a miss read: an idle pool page, a new one
// while the pool may make one, or a freshly evicted one. It returns nil
// only when every page is pinned and the pool is at its bound — never to
// a reader below its reservation (queue.PagePool). The returned page
// carries one reference, exactly like PagePool.TryGet.
func (c *Cache) Alloc() *queue.PageRef {
	// A new page is made outside the lock, so no hit waits for the memory.
	if r := c.pool.TryGet(); r != nil {
		return r
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shedLocked()
	return c.allocLocked()
}

// Reuse is Alloc for a page a viewer is waiting on: it makes a page only
// when none is idle or evictable, so a start never waits for new memory.
func (c *Cache) Reuse() *queue.PageRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shedLocked()
	if r := c.pool.TryReuse(); r != nil {
		return r
	}
	if r := c.evictLocked(); r != nil {
		return r
	}
	return c.allocLocked()
}

// allocLocked takes a page from the pool, else evicts one. The order is
// what makes a page certain for a reader below its reservation: once the
// pool has none to give, an evictable page exists, and only calls that
// hold c.mu take those.
func (c *Cache) allocLocked() *queue.PageRef {
	if r := c.pool.TryGet(); r != nil {
		return r
	}
	return c.evictLocked()
}

// shedLocked evicts what the pool holds past its capacity, which closed
// reservations leave for the next hand-out to drop.
func (c *Cache) shedLocked() {
	for n := c.pool.Surplus(); n > 0; n-- {
		r := c.evictLocked()
		if r == nil {
			return
		}
		r.Release() // over capacity: the pool drops it
	}
}

// Insert caches a page the caller just read into a pool page obtained
// from Alloc or Reuse (or from this cache's pool directly). The cache
// takes its own reference; the caller keeps its one and releases it as
// usual.
// Returns false — taking no reference — if the page is already cached
// (a concurrent reader raced the same miss) or the content is unknown
// to the cache (no PlayerStart registered it).
func (c *Cache) Insert(name string, page int64, ref *queue.PageRef) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct := c.contents[name]
	if ct == nil {
		return false
	}
	k := key{name, page}
	if _, dup := c.entries[k]; dup {
		return false
	}
	c.tick++
	ref.Retain()
	c.entries[k] = &entry{ref: ref, tick: c.tick}
	ct.cached++
	ct.tick = c.tick
	c.stats.Inserts++
	return true
}

// PlayerStart registers an active player on a content: its position
// feeds the interval the eviction policy protects, and totalPages
// (the IB-tree's page count) anchors coverage reporting.
func (c *Cache) PlayerStart(name string, player uint64, totalPages int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct := c.contents[name]
	if ct == nil {
		ct = &content{players: make(map[uint64]int64)}
		c.contents[name] = ct
	}
	ct.totalPages = totalPages
	c.tick++
	ct.tick = c.tick
	ct.players[player] = -1 // registered, not yet reading
}

// PlayerAt records a player's current page. Steady-state cost is one
// map store on an existing key — no allocation.
func (c *Cache) PlayerAt(name string, player uint64, page int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct := c.contents[name]
	if ct == nil {
		return
	}
	if _, ok := ct.players[player]; !ok {
		return
	}
	c.tick++
	ct.tick = c.tick
	ct.players[player] = page
}

// PlayerStop forgets a player. The content's pages stay cached — a
// fully played title is exactly the warm content admission wants —
// until eviction pressure or Drop reclaims them.
func (c *Cache) PlayerStop(name string, player uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ct := c.contents[name]
	if ct == nil {
		return
	}
	delete(ct.players, player)
	if len(ct.players) == 0 && ct.cached == 0 {
		delete(c.contents, name)
	}
}

// Invalidate discards one cached page (a reader found it failed page
// verification). Reports whether an entry was removed.
func (c *Cache) Invalidate(name string, page int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key{name, page}
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	delete(c.entries, k)
	e.ref.Release()
	if ct := c.contents[name]; ct != nil {
		ct.cached--
		if len(ct.players) == 0 && ct.cached == 0 {
			delete(c.contents, name)
		}
	}
	return true
}

// Drop discards every cached page of a content (deletion, rewrite) and
// reports how many entries were removed. Pages still referenced by
// in-flight descriptors return to the pool when their last packet is
// sent; no new hits can find them.
func (c *Cache) Drop(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, e := range c.entries {
		if k.name != name {
			continue
		}
		delete(c.entries, k)
		e.ref.Release()
		n++
	}
	if ct := c.contents[name]; ct != nil {
		ct.cached = 0
		if len(ct.players) == 0 {
			delete(c.contents, name)
		}
	}
	return n
}

// evictLocked picks and removes the best victim, transferring its page
// (one reference, like a fresh Get) to the caller. Victims must be
// pages only the cache references: Refs()==1 is stable under c.mu
// because every new reference to a cached page is taken in Lookup,
// which also holds c.mu. Returns nil when everything is pinned.
//
// Tiering implements the interval/popularity policy:
//
//	tier 0 — pages of contents with no active players (cold titles)
//	tier 1 — pages of playing contents outside every active interval
//	tier 2 — the protected set: pages in [hindmost, foremost+1] of a
//	         playing content (followers will re-read them) and its
//	         prefix pages (future joiners start there)
//
// Lower tiers evict first; within a tier, the stalest tick goes.
func (c *Cache) evictLocked() *queue.PageRef {
	var victimKey key
	var victim *entry
	victimTier := -1
	for k, e := range c.entries {
		if e.ref.Refs() != 1 {
			continue // pinned by in-flight descriptors
		}
		tier := c.tierLocked(k)
		if victim == nil || tier < victimTier ||
			(tier == victimTier && c.staleLocked(k, e, victimKey, victim)) {
			victimKey, victim, victimTier = k, e, tier
		}
	}
	if victim == nil {
		return nil
	}
	delete(c.entries, victimKey)
	if ct := c.contents[victimKey.name]; ct != nil {
		ct.cached--
		if len(ct.players) == 0 && ct.cached == 0 {
			delete(c.contents, victimKey.name)
		}
	}
	c.stats.Evictions++
	return victim.ref // the cache's reference becomes the caller's
}

// tierLocked classifies one entry for eviction (see evictLocked).
func (c *Cache) tierLocked(k key) int {
	ct := c.contents[k.name]
	if ct == nil || len(ct.players) == 0 {
		return 0
	}
	if k.page < prefixPages {
		return 2
	}
	lo, hi := int64(-1), int64(-1)
	for _, pos := range ct.players {
		if pos < 0 {
			continue // registered, not yet reading: protects nothing yet
		}
		if lo < 0 || pos < lo {
			lo = pos
		}
		if pos > hi {
			hi = pos
		}
	}
	if lo >= 0 && k.page >= lo && k.page <= hi+1 {
		return 2
	}
	return 1
}

// staleLocked breaks ties within a tier: an entry of a colder content
// loses to one of a hotter content; equal heat falls back to the
// entry's own LRU tick.
func (c *Cache) staleLocked(k key, e *entry, vk key, v *entry) bool {
	var ct, vt uint64
	if c := c.contents[k.name]; c != nil {
		ct = c.tick
	}
	if c := c.contents[vk.name]; c != nil {
		vt = c.tick
	}
	if ct != vt {
		return ct < vt
	}
	return e.tick < v.tick
}

// Stats snapshots the hit/miss/insert/eviction counters.
func (c *Cache) Stats() trace.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of cached pages.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Pinned reports how many of the pool's pages readers hold right now:
// pages handed out by Alloc that are still being read into or sent from,
// and cached pages with a hit outstanding. With every stream idle it is
// zero.
func (c *Cache) Pinned() int { //nolint:testonly // the pool proofs: the msu tests check no page stays pinned
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.pool.Held()
	for _, e := range c.entries {
		if e.ref.Refs() == 1 {
			n-- // resident, held by the cache alone
		}
	}
	return n
}

// Coverage is one content's cache footprint, as advertised to the
// Coordinator: CachedPages of TotalPages resident, Players active.
type Coverage struct {
	Name        string
	CachedPages int64
	TotalPages  int64
	Players     int
}

// Coverage reports every known content's footprint, sorted by name.
func (c *Cache) Coverage() []Coverage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Coverage, 0, len(c.contents))
	for name, ct := range c.contents {
		out = append(out, Coverage{
			Name:        name,
			CachedPages: ct.cached,
			TotalPages:  ct.totalPages,
			Players:     len(ct.players),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
