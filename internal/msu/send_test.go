package msu

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"calliope/internal/queue"
)

// pacingRig is the sender's pacing core with no goroutine, no socket and
// no clock of its own: flows over one real page pool, stepped at times the
// test picks.
type pacingRig struct {
	t    *testing.T
	x    *sender
	pool *queue.PagePool
	base time.Time
}

func newPacingRig(t *testing.T) *pacingRig {
	pool, err := queue.NewPagePool(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &pacingRig{t: t, x: newSender(), pool: pool, base: time.Unix(1000, 0)}
}

// flow is a flow paced from the rig's base, with a reservation of pages in
// its pool.
func (r *pacingRig) flow(pages int) *flow {
	f := new(flow)
	f.init(nil, r.x, &msuMetrics{})
	r.pool.Reserve(&f.res, pages)
	f.epoch = r.base
	return f
}

// page queues one page's packets at the given delivery times (ms), each
// holding a reference on the page, and then the page's done descriptor.
func (r *pacingRig) page(f *flow, ms ...int) {
	r.t.Helper()
	if !f.pin() {
		r.t.Fatal("no room in the reservation")
	}
	page := r.pool.TryGet()
	for i, t := range ms {
		page.Retain()
		if !f.put(descriptor{t: time.Duration(t) * time.Millisecond, page: page, off: i, n: 1}) {
			r.t.Fatal("ring full")
		}
	}
	if !f.put(descriptor{page: page, done: true}) {
		r.t.Fatal("ring full")
	}
}

// step runs the pacing step at ms past the base and names what came out:
// "a10" is flow a's packet at 10 ms, "a+" its done descriptor. It hands
// back what the sender would: the packets' references, and the done
// descriptors' pins. next is the wake-up it reports, past the base; -1 for
// none.
func (r *pacingRig) step(ms int, names map[*flow]string) (got string, next time.Duration) {
	out, at := r.x.step(r.base.Add(time.Duration(ms)*time.Millisecond), nil)
	var sent []string
	for _, o := range out {
		if o.d.done {
			sent = append(sent, names[o.f]+"+")
			o.f.unpin(o.d.page)
			continue
		}
		sent = append(sent, fmt.Sprintf("%s%d", names[o.f], o.d.t/time.Millisecond))
		o.d.page.Release()
	}
	next = -1 // nothing queued
	if !at.IsZero() {
		next = at.Sub(r.base)
	}
	return strings.Join(sent, " "), next
}

// TestPacingStep pins the sender's pacing core. Descriptors of several
// flows come out in due order, those due at one instant in the order they
// were keyed, and each step reports the next due time as its wake-up. A
// flow whose ring runs dry leaves the heap and is put back by exactly one
// nudge however much is queued meanwhile. A flush drops exactly that
// flow's page references and pins, leaving the pool holding what the
// others do. None of it allocates per descriptor.
func TestPacingStep(t *testing.T) {
	r := newPacingRig(t)
	a, b, c := r.flow(2), r.flow(2), r.flow(2)
	names := map[*flow]string{a: "a", b: "b", c: "c"}
	r.page(a, 0, 10, 20)
	r.page(b, 0, 5, 20)
	r.page(c, 10)
	if n := len(r.x.in.woken); n != 3 {
		t.Fatalf("%d flows woken by their first enqueues, want 3", n)
	}
	r.x.intake()
	for _, step := range []struct {
		at   int
		want string
		next time.Duration
	}{
		{-1, "", 0},
		{0, "a0 b0", 5 * time.Millisecond},
		{4, "", 5 * time.Millisecond},
		{5, "b5", 10 * time.Millisecond},
		{10, "c10 a10 c+", 20 * time.Millisecond},
		{30, "b20 a20 b+ a+", -1},
	} {
		got, next := r.step(step.at, names)
		if got != step.want || next != step.next {
			t.Errorf("step at %d ms: sent %q, next wake-up %v; want %q, %v", step.at, got, next, step.want, step.next)
		}
	}
	if len(r.x.heap) != 0 || !a.dry.Load() || !b.dry.Load() || !c.dry.Load() {
		t.Fatalf("%d flows in the heap with every ring empty, want none, all dry", len(r.x.heap))
	}
	if n := r.pool.Held(); n != 0 {
		t.Fatalf("%d pages held with everything sent", n)
	}

	// Dry, a flow is put back by one nudge, however much is queued.
	select {
	case <-r.x.kick:
	default:
	}
	r.page(a, 40, 50)
	if n := len(r.x.in.woken); n != 1 {
		t.Errorf("a dry flow given two packets and a done descriptor woke the sender %d times, want 1", n)
	}
	select {
	case <-r.x.kick:
	default:
		t.Error("the nudge did not kick the sender")
	}
	r.x.intake()
	if got, next := r.step(40, names); got != "a40" || next != 50*time.Millisecond {
		t.Errorf("after the nudge: sent %q, next wake-up %v; want \"a40\", 50ms", got, next)
	}

	// A flush drops exactly the flushed flow's pages: a holds one, b two.
	r.page(b, 60)
	r.page(b, 70)
	r.x.intake()
	if n := r.pool.Held(); n != 3 {
		t.Fatalf("%d pages held, want a's one and b's two", n)
	}
	select {
	case <-r.x.kick: // b's wake-up, taken in above
	default:
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-r.x.kick
		r.x.intake()
	}()
	r.x.flush(a)
	<-done
	if held, pinned := r.pool.Held(), a.res.Pinned(); held != 2 || pinned != 0 {
		t.Errorf("after a flush of a: the pool holds %d pages and a pins %d; want b's 2, and 0", held, pinned)
	}
	if a.idx >= 0 || !a.dry.Load() {
		t.Error("a flushed flow is still in the heap, or not dry")
	}
	if got, _ := r.step(70, names); got != "b60 b+ b70 b+" {
		t.Errorf("after the flush of a: sent %q, want b's two pages", got)
	}

	// Allocation: once warm, putting, waking and stepping allocate nothing.
	var out []sending
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			c.put(descriptor{t: time.Duration(i)})
		}
		r.x.intake()
		out, _ = r.x.step(r.base.Add(time.Second), out[:0])
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations a step of 64 descriptors, want 0", allocs)
	}
}
