package cache

// The disk's one pool under its cache: players reserve pages in it, pin
// within their reservations and past them on loan, and stop; the cache
// inserts what they read and evicts, drops and invalidates. The pool's
// promises must hold at every step of any interleaving.

import (
	"fmt"
	"math/rand"
	"testing"

	"calliope/internal/queue"
)

// modelPlayer is one reader of the model: its reservation, the title it
// reads and the pages it holds.
type modelPlayer struct {
	id      uint64
	title   string
	res     queue.Reservation
	playing bool
	held    []*queue.PageRef
}

// TestPoolInterleavings drives random start / stop / pin / unpin /
// borrow / evict interleavings over one pool and its cache, one step at a
// time, and checks after each step that a player below its reservation
// got a page without waiting, that no more pages are lent than the cache
// owns, and that a hand-out leaves no more pages made than the pool's
// capacity; at the end every page is back.
func TestPoolInterleavings(t *testing.T) {
	const (
		own, reserve, lend = 8, 6, 2
		players, titles    = 5, 3
		titlePages         = 12
	)
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool, err := queue.NewPagePool(64, own)
			if err != nil {
				t.Fatal(err)
			}
			c := New(pool)
			ps := make([]*modelPlayer, players)
			for i := range ps {
				ps[i] = &modelPlayer{id: uint64(i + 1)}
			}
			handedOut := func(what string, r *queue.PageRef) {
				t.Helper()
				if r == nil {
					return
				}
				if made, cap := pool.Made(), pool.Cap(); made > cap {
					t.Fatalf("%s: %d pages made after a hand-out, over the pool's capacity of %d", what, made, cap)
				}
			}
			for step := 0; step < 3000; step++ {
				p := ps[rng.Intn(players)]
				switch op := rng.Intn(10); {
				case !p.playing && op < 3: // start
					pool.Reserve(&p.res, reserve)
					p.title = fmt.Sprint("title-", rng.Intn(titles))
					c.PlayerStart(p.title, p.id, titlePages)
					p.playing = true
				case p.playing && len(p.held) == 0 && op == 0: // stop
					c.PlayerStop(p.title, p.id)
					p.res.Close()
					p.playing = false
				case p.playing && op < 6: // pin: a hit, or a read into a page of the pool
					below := p.res.Pinned() < reserve
					if !below && p.res.Pinned() >= reserve+lend {
						break
					}
					if _, ok := p.res.Pin(); !ok {
						if below {
							t.Fatalf("step %d: a player below its reservation could not pin", step)
						}
						break // nothing to lend
					}
					idx := int64(rng.Intn(titlePages))
					c.PlayerAt(p.title, p.id, idx)
					r := c.Lookup(p.title, idx)
					if r == nil {
						if rng.Intn(2) == 0 {
							r = c.Alloc()
						} else {
							r = c.Reuse()
						}
						if r == nil {
							t.Fatalf("step %d: a pin with %d of %d reserved pages held got no page (made %d, cap %d, lent %d, cached %d)",
								step, p.res.Pinned()-1, reserve, pool.Made(), pool.Cap(), pool.Lent(), c.Len())
						}
						handedOut("alloc", r)
						c.Insert(p.title, idx, r)
					}
					p.held = append(p.held, r)
				case p.playing && len(p.held) > 0 && op < 9: // unpin
					i := rng.Intn(len(p.held))
					p.held[i].Release()
					p.held = append(p.held[:i], p.held[i+1:]...)
					p.res.Unpin()
				case op == 9: // evict by hand: a whole title, or one page
					title := fmt.Sprint("title-", rng.Intn(titles))
					if rng.Intn(2) == 0 {
						c.Drop(title)
					} else {
						c.Invalidate(title, int64(rng.Intn(titlePages)))
					}
				}
				if lent := pool.Lent(); lent > own {
					t.Fatalf("step %d: %d pages lent out of a cache of %d", step, lent, own)
				}
			}
			for _, p := range ps {
				for _, r := range p.held {
					r.Release()
					p.res.Unpin()
				}
				if p.playing {
					c.PlayerStop(p.title, p.id)
					p.res.Close()
				}
			}
			if n, lent := c.Pinned(), pool.Lent(); n != 0 || lent != 0 {
				t.Fatalf("at idle: %d pages pinned, %d lent", n, lent)
			}
			if held, cached := pool.Held(), c.Len(); held != cached {
				t.Fatalf("at idle: %d pages out of the pool, %d of them cached", held, cached)
			}
			// The next hand-out sheds what the closed reservations left.
			r := c.Alloc()
			handedOut("alloc at idle", r)
			r.Release()
			if made := pool.Made(); made > own {
				t.Fatalf("at idle: %d pages made, over the pool's own %d", made, own)
			}
		})
	}
}
