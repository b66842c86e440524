// Package queue implements the MSU's inter-process communication
// primitive: a lock-free single-producer/single-consumer ring queue.
//
// The paper (§2.3) says the MSU processes "communicate using a shared
// memory queue structure that relies on the atomicity of memory read and
// write instructions to produce atomic enqueue and dequeue operations"
// instead of expensive semaphores. This package is the Go analogue:
// exactly one goroutine enqueues and exactly one dequeues, coordinated
// only by two atomic counters. The mutex-based equivalent the ablation
// benchmark in DESIGN.md compares it with is a test type (Mutexed).
package queue

import (
	"sync/atomic"
)

// SPSC is a bounded lock-free single-producer/single-consumer queue.
// Enqueue must be called from only one goroutine at a time, and Dequeue
// from only one goroutine at a time (they may be different goroutines).
// The zero value is not usable; call NewSPSC.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	// head is the next slot to dequeue, tail the next slot to fill.
	// Only the consumer writes head; only the producer writes tail.
	head atomic.Uint64
	tail atomic.Uint64
}

// NewSPSC returns a queue with capacity rounded up to a power of two
// (minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	if capacity < 2 {
		capacity = 2
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Len reports the number of queued items. It is exact when called by
// the producer or the consumer, and a clamped snapshot in [0, Cap]
// otherwise. head must be loaded before tail: a third-party observer
// racing the consumer could otherwise see a head advanced past the
// tail it read and underflow the uint64 subtraction to a huge positive
// length. Both counters may still advance between the two loads, so
// the snapshot is clamped to the queue's physical bounds.
func (q *SPSC[T]) Len() int {
	head := q.head.Load()
	tail := q.tail.Load()
	if tail < head {
		return 0 // unreachable with head loaded first; kept as a guard
	}
	if d := tail - head; d < uint64(len(q.buf)) {
		return int(d)
	}
	return len(q.buf)
}

// Enqueue adds v and reports whether there was room. Producer-side only.
func (q *SPSC[T]) Enqueue(v T) bool {
	tail := q.tail.Load()
	if tail-q.head.Load() == uint64(len(q.buf)) {
		return false // full
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1) // publish after the slot is written
	return true
}

// Dequeue removes and returns the oldest item. Consumer-side only.
func (q *SPSC[T]) Dequeue() (T, bool) {
	var zero T
	head := q.head.Load()
	if head == q.tail.Load() {
		return zero, false // empty
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero // release for GC
	q.head.Store(head + 1)
	return v, true
}

// Peek returns the oldest item without removing it. Consumer-side only.
func (q *SPSC[T]) Peek() (T, bool) {
	var zero T
	head := q.head.Load()
	if head == q.tail.Load() {
		return zero, false
	}
	return q.buf[head&q.mask], true
}
