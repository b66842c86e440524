package cache

// The PagePool/cache pin interplay: the cache holds long-lived
// references on pool pages, and a page comes back to a direct pool user
// only when eviction (or Drop) releases one — backpressure, not deadlock.
// This test runs meaningfully under -race.

import (
	"sync"
	"testing"
	"time"

	"calliope/internal/queue"
)

// TestPinBackpressureStress races direct pool users against cache
// readers over one small shared pool: every user eventually proceeds,
// nothing deadlocks, and the pool is whole at the end.
func TestPinBackpressureStress(t *testing.T) {
	const pages = 4
	pool, err := queue.NewPagePool(64, pages)
	if err != nil {
		t.Fatal(err)
	}
	c := New(pool)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Cache readers: miss-fill and hit pages, holding pins briefly.
	for pl := 0; pl < 3; pl++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			c.PlayerStart("movie", id, 64)
			defer c.PlayerStop("movie", id)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := int64(i % 64)
				c.PlayerAt("movie", id, p)
				ref := c.Lookup("movie", p)
				if ref == nil {
					if ref = c.Alloc(); ref == nil {
						continue
					}
					c.Insert("movie", p, ref)
				}
				ref.Release()
			}
		}(uint64(pl))
	}
	// Direct pool users: they take pages through Alloc, which evicts
	// unpinned entries when the pool has none idle, and return them
	// promptly.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ref := c.Alloc(); ref != nil {
					ref.Release()
				}
			}
		}()
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Every page must be recoverable: drop all cache pins and count.
	c.Drop("movie")
	for i := 0; i < pages; i++ {
		ref := pool.TryGet()
		if ref == nil {
			t.Fatalf("pool lost pages: only %d of %d recovered", i, pages)
		}
		defer ref.Release()
	}
}
