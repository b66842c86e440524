package queue

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", q.Cap())
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue on empty queue succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.Enqueue(i) {
			t.Fatalf("Enqueue(%d) failed with room available", i)
		}
	}
	if q.Enqueue(99) {
		t.Fatal("Enqueue succeeded on full queue")
	}
	if q.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", q.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Dequeue()
		if !ok || v != i {
			t.Fatalf("Dequeue = %d,%v, want %d,true", v, ok, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() after drain = %d, want 0", q.Len())
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}} {
		q := NewSPSC[int](c.in)
		if q.Cap() != c.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", c.in, q.Cap(), c.want)
		}
	}
}

func TestSPSCPeek(t *testing.T) {
	q := NewSPSC[string](2)
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue succeeded")
	}
	q.Enqueue("a")
	q.Enqueue("b")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q,%v, want a,true", v, ok)
	}
	if q.Len() != 2 {
		t.Fatal("Peek consumed an item")
	}
	q.Dequeue()
	if v, ok := q.Peek(); !ok || v != "b" {
		t.Fatalf("Peek after Dequeue = %q,%v, want b,true", v, ok)
	}
}

func TestSPSCWraparound(t *testing.T) {
	q := NewSPSC[int](4)
	// Force indices past the buffer length several times.
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if !q.Enqueue(round*10 + i) {
				t.Fatalf("round %d: enqueue failed", round)
			}
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Dequeue()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: got %d,%v want %d,true", round, v, ok, round*10+i)
			}
		}
	}
}

// TestSPSCConcurrentFIFO is the core invariant: with one producer and
// one consumer running concurrently, every item arrives exactly once
// and in order, with no locks involved. Run with -race to check the
// publication ordering.
func TestSPSCConcurrentFIFO(t *testing.T) {
	const n = 200000
	q := NewSPSC[int](64)
	done := make(chan error, 1)
	go func() {
		expect := 0
		for expect < n {
			v, ok := q.Dequeue()
			if !ok {
				runtime.Gosched() // keep single-CPU hosts from starving the producer
				continue
			}
			if v != expect {
				done <- errIndex(v, expect)
				return
			}
			expect++
		}
		done <- nil
	}()
	for i := 0; i < n; {
		if q.Enqueue(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSPSCLenObserverRace is the regression test for the Len load
// order: an observer racing a spinning consumer must never see a
// length outside [0, Cap]. With tail loaded before head, the consumer
// could advance head past the stale tail between the two loads and the
// uint64 subtraction underflowed to ~2^64. Run with -race.
func TestSPSCLenObserverRace(t *testing.T) {
	const n = 200000
	q := NewSPSC[int](64)
	consumerDone := make(chan struct{})
	observerDone := make(chan error, 1)
	go func() {
		defer close(consumerDone)
		for got := 0; got < n; {
			if _, ok := q.Dequeue(); ok {
				got++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		for {
			select {
			case <-consumerDone:
				observerDone <- nil
				return
			default:
			}
			if l := q.Len(); l < 0 || l > q.Cap() {
				observerDone <- fmt.Errorf("observer saw Len=%d outside [0,%d]", l, q.Cap())
				return
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < n; {
		if q.Enqueue(i) {
			i++
		} else {
			runtime.Gosched()
		}
	}
	if err := <-observerDone; err != nil {
		t.Fatal(err)
	}
}

type errIndexT struct{ got, want int }

func errIndex(got, want int) error { return errIndexT{got, want} }
func (e errIndexT) Error() string  { return "out of order" }

// Property: any interleaved sequence of enqueues and dequeues behaves
// identically to a model slice-backed FIFO.
func TestSPSCMatchesModel(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewSPSC[int](8)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				ok := q.Enqueue(next)
				modelOK := len(model) < q.Cap()
				if ok != modelOK {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.Dequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMutexedMatchesModel(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewMutexed[int](5)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				ok := q.Enqueue(next)
				if ok != (len(model) < 5) {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.Dequeue()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMutexedBasic(t *testing.T) {
	q := NewMutexed[int](2)
	if q.Cap() != 2 {
		t.Fatalf("Cap() = %d", q.Cap())
	}
	if !q.Enqueue(1) || !q.Enqueue(2) || q.Enqueue(3) {
		t.Fatal("capacity not enforced")
	}
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("Dequeue = %d,%v", v, ok)
	}
	q2 := NewMutexed[int](0)
	if q2.Cap() != 1 {
		t.Fatalf("min capacity = %d, want 1", q2.Cap())
	}
}

func BenchmarkSPSCPingPong(b *testing.B) {
	q := NewSPSC[int](1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		got := 0
		for got < b.N {
			if _, ok := q.Dequeue(); ok {
				got++
			}
		}
	}()
	for i := 0; i < b.N; {
		if q.Enqueue(i) {
			i++
		}
	}
	<-done
}

func BenchmarkMutexedPingPong(b *testing.B) {
	q := NewMutexed[int](1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		got := 0
		for got < b.N {
			if _, ok := q.Dequeue(); ok {
				got++
			}
		}
	}()
	for i := 0; i < b.N; {
		if q.Enqueue(i) {
			i++
		}
	}
	<-done
}

// Mutexed is a mutex-protected bounded FIFO with the same interface as
// SPSC, used as the baseline in the lock-free-vs-mutex ablation bench.
type Mutexed[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int
	n    int
}

// NewMutexed returns a mutex-based queue of exactly the given capacity.
func NewMutexed[T any](capacity int) *Mutexed[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Mutexed[T]{buf: make([]T, capacity)}
}

// Cap reports the queue's capacity.
func (q *Mutexed[T]) Cap() int { return len(q.buf) }

// Len reports the number of queued items.
func (q *Mutexed[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Enqueue adds v and reports whether there was room.
func (q *Mutexed[T]) Enqueue(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	return true
}

// Dequeue removes and returns the oldest item.
func (q *Mutexed[T]) Dequeue() (T, bool) {
	var zero T
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// Cap reports the queue's capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }
