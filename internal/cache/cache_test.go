package cache

import (
	"sync"
	"testing"

	"calliope/internal/queue"
)

func newCache(t testing.TB, pageSize, pages int) *Cache {
	t.Helper()
	pool, err := queue.NewPagePool(pageSize, pages)
	if err != nil {
		t.Fatal(err)
	}
	return New(pool)
}

// fill reads a fake page into the cache: Alloc, stamp, Insert, release
// the reader's own reference (as the disk goroutine does).
func fill(t testing.TB, c *Cache, name string, page int64, stamp byte) bool {
	t.Helper()
	ref := c.Alloc()
	if ref == nil {
		return false
	}
	ref.Bytes()[0] = stamp
	ok := c.Insert(name, page, ref)
	ref.Release()
	if !ok {
		t.Fatalf("Insert(%q,%d) refused", name, page)
	}
	return true
}

func TestLookupHitPinsAndAliases(t *testing.T) {
	c := newCache(t, 64, 4)
	c.PlayerStart("movie", 1, 10)
	if got := c.Lookup("movie", 0); got != nil {
		t.Fatal("hit on empty cache")
	}
	fill(t, c, "movie", 0, 0xAB)
	ref := c.Lookup("movie", 0)
	if ref == nil {
		t.Fatal("miss after insert")
	}
	// Zero copy: the hit returns the very page that was inserted.
	if ref.Bytes()[0] != 0xAB {
		t.Fatalf("hit returned different memory: %x", ref.Bytes()[0])
	}
	if ref.Refs() != 2 { // cache pin + our hit
		t.Fatalf("refs = %d, want 2", ref.Refs())
	}
	if c.Pinned() != 1 {
		t.Fatalf("Pinned() = %d with one hit outstanding, want 1", c.Pinned())
	}
	ref.Release()
	if alloc := c.Alloc(); c.Pinned() != 1 {
		t.Fatalf("Pinned() = %d with one page being read into, want 1", c.Pinned())
	} else {
		alloc.Release()
	}
	if c.Pinned() != 0 {
		t.Fatalf("Pinned() = %d with one resident page and no reader, want 0", c.Pinned())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInsertDuplicateRefused(t *testing.T) {
	c := newCache(t, 64, 4)
	c.PlayerStart("movie", 1, 10)
	fill(t, c, "movie", 3, 1)
	ref := c.Alloc()
	if c.Insert("movie", 3, ref) {
		t.Fatal("duplicate insert accepted")
	}
	if ref.Refs() != 1 {
		t.Fatalf("refused insert took a reference: refs = %d", ref.Refs())
	}
	ref.Release()
}

func TestInsertNeedsRegisteredContent(t *testing.T) {
	c := newCache(t, 64, 4)
	ref := c.Alloc()
	if c.Insert("ghost", 0, ref) {
		t.Fatal("insert accepted for unregistered content")
	}
	ref.Release()
}

func TestEvictionPrefersColdContent(t *testing.T) {
	c := newCache(t, 64, 4)
	c.PlayerStart("cold", 1, 4)
	fill(t, c, "cold", 0, 0)
	fill(t, c, "cold", 1, 0)
	c.PlayerStop("cold", 1) // no players left: tier 0
	c.PlayerStart("hot", 2, 4)
	c.PlayerAt("hot", 2, 0)
	fill(t, c, "hot", 0, 0)
	fill(t, c, "hot", 1, 0)
	// Pool is full (4 pages cached). The next two Allocs must evict the
	// cold title, not the one with an active player. Hold both pages so
	// each Alloc is forced to evict rather than reuse a freed page.
	var held []*queue.PageRef
	for i := 0; i < 2; i++ {
		ref := c.Alloc()
		if ref == nil {
			t.Fatalf("Alloc %d: everything pinned", i)
		}
		held = append(held, ref)
	}
	defer func() {
		for _, r := range held {
			r.Release()
		}
	}()
	if c.Lookup("hot", 0) == nil || c.Lookup("hot", 1) == nil {
		t.Fatal("hot title evicted while cold title cached")
	}
	if c.Lookup("cold", 0) != nil || c.Lookup("cold", 1) != nil {
		t.Fatal("cold title survived eviction pressure")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestEvictionProtectsActiveInterval(t *testing.T) {
	c := newCache(t, 64, 6)
	c.PlayerStart("movie", 1, 20) // leader
	c.PlayerStart("movie", 2, 20) // follower
	// Pages 4..9 cached; leader at 9, follower at 5. prefixPages=2 does
	// not cover these, so the interval rule decides alone.
	for p := int64(4); p < 10; p++ {
		fill(t, c, "movie", p, 0)
	}
	c.PlayerAt("movie", 1, 9)
	c.PlayerAt("movie", 2, 5)
	// One eviction: page 4 is behind the hindmost player (outside the
	// interval [5,10]); everything else is protected.
	ref := c.Alloc()
	if ref == nil {
		t.Fatal("Alloc: everything pinned")
	}
	ref.Release()
	if c.Lookup("movie", 4) != nil {
		t.Fatal("page behind the interval survived")
	}
	for p := int64(5); p < 10; p++ {
		if got := c.Lookup("movie", p); got == nil {
			t.Fatalf("interval page %d evicted", p)
		} else {
			got.Release()
		}
	}
}

func TestEvictionKeepsPrefix(t *testing.T) {
	c := newCache(t, 64, 4)
	c.PlayerStart("movie", 1, 20)
	fill(t, c, "movie", 0, 0) // prefix
	fill(t, c, "movie", 1, 0) // prefix
	fill(t, c, "movie", 7, 0)
	fill(t, c, "movie", 8, 0)
	c.PlayerAt("movie", 1, 12) // interval [12,13]: pages 7,8 outside it
	ref := c.Alloc()
	if ref == nil {
		t.Fatal("Alloc: everything pinned")
	}
	ref.Release()
	if c.Lookup("movie", 0) == nil || c.Lookup("movie", 1) == nil {
		t.Fatal("prefix page evicted while mid-file pages were available")
	}
}

func TestAllocNilWhenAllPinned(t *testing.T) {
	c := newCache(t, 64, 2)
	c.PlayerStart("movie", 1, 4)
	fill(t, c, "movie", 0, 0)
	fill(t, c, "movie", 1, 0)
	// Pin both cached pages as in-flight descriptors would.
	a := c.Lookup("movie", 0)
	b := c.Lookup("movie", 1)
	if c.Alloc() != nil {
		t.Fatal("Alloc succeeded with every page pinned")
	}
	a.Release()
	if ref := c.Alloc(); ref == nil {
		t.Fatal("Alloc failed after a pin was released")
	} else {
		ref.Release()
	}
	b.Release()
}

func TestDropReleasesPages(t *testing.T) {
	c := newCache(t, 64, 4)
	c.PlayerStart("movie", 1, 4)
	fill(t, c, "movie", 0, 0)
	fill(t, c, "movie", 1, 0)
	c.PlayerStop("movie", 1)
	if n := c.Drop("movie"); n != 2 {
		t.Fatalf("Drop removed %d entries, want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("entries after Drop: %d", c.Len())
	}
	if free := 4 - c.Len(); free != 4 {
		t.Fatalf("pool pages not returned: %d cached", c.Len())
	}
	// All four pages are allocatable again.
	var refs []*queue.PageRef
	for i := 0; i < 4; i++ {
		ref := c.Alloc()
		if ref == nil {
			t.Fatalf("Alloc %d failed after Drop", i)
		}
		refs = append(refs, ref)
	}
	for _, r := range refs {
		r.Release()
	}
}

func TestCoverage(t *testing.T) {
	c := newCache(t, 64, 8)
	c.PlayerStart("b-movie", 7, 6)
	c.PlayerStart("a-movie", 9, 3)
	fill(t, c, "a-movie", 0, 0)
	fill(t, c, "a-movie", 1, 0)
	fill(t, c, "b-movie", 0, 0)
	cov := c.Coverage()
	if len(cov) != 2 || cov[0].Name != "a-movie" || cov[1].Name != "b-movie" {
		t.Fatalf("coverage = %+v", cov)
	}
	if cov[0].CachedPages != 2 || cov[0].TotalPages != 3 || cov[0].Players != 1 {
		t.Fatalf("a-movie coverage = %+v", cov[0])
	}
	if cov[1].CachedPages != 1 || cov[1].TotalPages != 6 {
		t.Fatalf("b-movie coverage = %+v", cov[1])
	}
}

// TestConcurrentPlayersShareCache exercises the full protocol from
// many goroutines under -race: register, miss-read (Alloc+Insert),
// hit (Lookup), advance, stop.
func TestConcurrentPlayersShareCache(t *testing.T) {
	c := newCache(t, 64, 8)
	const players, pages = 8, 16
	var wg sync.WaitGroup
	for pl := 0; pl < players; pl++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			c.PlayerStart("movie", id, pages)
			defer c.PlayerStop("movie", id)
			for p := int64(0); p < pages; p++ {
				c.PlayerAt("movie", id, p)
				ref := c.Lookup("movie", p)
				if ref == nil {
					if ref = c.Alloc(); ref == nil {
						continue // all pinned: these readers reserve nothing in the pool
					}
					c.Insert("movie", p, ref)
				}
				_ = ref.Bytes()[0]
				ref.Release()
			}
		}(uint64(pl))
	}
	wg.Wait()
	st := c.Stats()
	if st.Lookups() != players*pages {
		t.Fatalf("lookups = %d, want %d", st.Lookups(), players*pages)
	}
	if st.Hits == 0 {
		t.Fatal("concurrent players shared nothing")
	}
}
