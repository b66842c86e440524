package queue

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPagePoolInvalid(t *testing.T) {
	if _, err := NewPagePool(0, 1); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := NewPagePool(1, -1); err == nil {
		t.Fatal("count -1 accepted")
	}
	// A pool that owns no page is a cacheless disk's: its readers'
	// reservations are all of it.
	p, err := NewPagePool(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.TryGet() != nil {
		t.Fatal("a pool with no pages and no reservation handed one out")
	}
}

func TestPagePoolRecycles(t *testing.T) {
	p, err := NewPagePool(4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.PageSize() != 4096 {
		t.Fatalf("PageSize = %d", p.PageSize())
	}
	a := p.TryGet()
	b := p.TryGet()
	if a == nil || b == nil {
		t.Fatal("pool handed out fewer pages than its count")
	}
	if p.TryGet() != nil {
		t.Fatal("pool handed out more pages than its count")
	}
	if len(a.Bytes()) != 4096 {
		t.Fatalf("page length %d", len(a.Bytes()))
	}
	a.Bytes()[0] = 0xAB
	a.Release()
	c := p.TryGet()
	if c != a {
		t.Fatal("released page was not recycled")
	}
	if c.Refs() != 1 {
		t.Fatalf("recycled page has %d refs, want 1", c.Refs())
	}
	c.Release()
	b.Release()
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestPageRefDoublePutPanics(t *testing.T) {
	p, _ := NewPagePool(16, 2)
	a := p.TryGet()
	a.Release()
	mustPanic(t, "double Release", func() { a.Release() })
}

func TestPageRefUseAfterPutPanics(t *testing.T) {
	p, _ := NewPagePool(16, 2)
	a := p.TryGet()
	a.Release()
	mustPanic(t, "Bytes after Release", func() { a.Bytes() })
	mustPanic(t, "Retain after Release", func() { a.Retain() })
}

// TestPagePoolConcurrentRefs exercises the refcount under -race: a
// producer retains once per consumer, consumers release concurrently,
// and the page must land back in the pool exactly once with its memory
// visible to the next owner.
func TestPagePoolConcurrentRefs(t *testing.T) {
	const rounds = 200
	const consumers = 4
	p, _ := NewPagePool(64, 2)
	for i := 0; i < rounds; i++ {
		r := p.TryGet()
		if r == nil {
			t.Fatal("pool ran dry")
		}
		r.Bytes()[0] = byte(i)
		var wg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			r.Retain()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = r.Bytes()[0]
				r.Release()
			}()
		}
		r.Release() // drop the producer's hold; consumers finish the page
		wg.Wait()
		if got := p.TryGet(); got == nil {
			t.Fatal("page did not return to the pool after final release")
		} else {
			got.Release()
		}
	}
}

// TestPagePoolCreatesOnFirstUse exercises the creation edge under
// -race: a fresh pool owns no page memory, concurrent TryGet/Release
// never have more than Cap pages out or in existence, and every page
// created is back when they are done.
func TestPagePoolCreatesOnFirstUse(t *testing.T) {
	const pages, workers, rounds = 3, 8, 500
	p, _ := NewPagePool(64, pages)
	if p.Free() != pages || p.Cap() != pages || len(p.free) != 0 {
		t.Fatalf("fresh pool: Free %d Cap %d, %d pages created; want %d, %d, 0", p.Free(), p.Cap(), len(p.free), pages, pages)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[*PageRef]bool)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r := p.TryGet()
				if r == nil {
					continue
				}
				if free := p.Free(); free < 0 || free >= pages {
					t.Errorf("Free() = %d with a page out of a pool of %d", free, pages)
				}
				r.Bytes()[0]++ // -race: no two holders of one page
				mu.Lock()
				seen[r] = true
				mu.Unlock()
				r.Release()
			}
		}()
	}
	wg.Wait()
	if len(seen) == 0 || len(seen) > pages {
		t.Fatalf("%d distinct pages handed out of a pool of %d", len(seen), pages)
	}
	if p.Free() != pages || len(p.free) != len(seen) {
		t.Fatalf("after the run: Free %d, %d idle pages; want %d, %d", p.Free(), len(p.free), pages, len(seen))
	}
}

// TestReservationsConcurrent races readers that reserve, pin within their
// reservations and past them on loan, unpin and close, over one pool with
// a few pages of its own, under -race: a reader below its reservation
// always gets a page at once, no more pages are lent than the pool owns
// or made than every reservation could hold, and at the end every page is
// idle, nothing is lent, and the capacity is the pool's own again.
func TestReservationsConcurrent(t *testing.T) {
	const own, readers, reserve, lend, rounds = 4, 6, 6, 2, 300
	p, _ := NewPagePool(64, own)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var res Reservation
			for i := 0; i < rounds; i++ {
				p.Reserve(&res, reserve)
				var held []*PageRef
				for j := rng.Intn(3 * reserve); j > 0; j-- {
					if len(held) > 0 && rng.Intn(3) == 0 {
						held[0].Release()
						held = held[1:]
						res.Unpin()
						continue
					}
					below := res.Pinned() < reserve
					if !below && res.Pinned() >= reserve+lend {
						continue
					}
					if _, ok := res.Pin(); !ok {
						if below {
							t.Error("a reader below its reservation could not pin")
							return
						}
						continue
					}
					r := p.TryGet()
					if r == nil {
						t.Errorf("a reader holding %d of %d reserved pages got no page", len(held), reserve)
						return
					}
					r.Bytes()[0]++ // -race: no two holders of one page
					held = append(held, r)
					if lent := p.Lent(); lent > own {
						t.Errorf("%d pages lent out of the pool's own %d", lent, own)
					}
					if made := p.Made(); made > own+readers*reserve {
						t.Errorf("%d pages made, over every reservation and the pool's own", made)
					}
				}
				for _, r := range held {
					r.Release()
					res.Unpin()
				}
				res.Close()
			}
		}(int64(w))
	}
	wg.Wait()
	if held, lent, cap := p.Held(), p.Lent(), p.Cap(); held != 0 || lent != 0 || cap != own {
		t.Fatalf("at the end: %d pages held, %d lent, capacity %d; want 0, 0, %d", held, lent, cap, own)
	}
}
