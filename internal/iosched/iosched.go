// Package iosched is the MSU's per-disk I/O scheduler (§2.3.3, §2.2.1).
//
// The paper's MSU owns its disks and schedules block I/O itself: a
// round-based duty cycle with one I/O in flight per disk, and elevator
// ordering inside each round measured at ~6% over round-robin. This
// package brings that discipline to the live delivery path: every
// player's page read is submitted to the volume's Scheduler instead of
// hitting the device directly, so N concurrent players no longer
// degenerate to random-order, unbounded-concurrency I/O.
//
// Service proceeds in rounds. Each round takes the pending requests
// whose deadlines fall within DefaultSlack of the earliest pending
// deadline — the most urgent requests bound the round, so a
// tight-deadline arrival waits at most one round — and serves them in
// C-SCAN order by device offset (ascending from the current head
// position, wrapping once).
// Device-adjacent requests coalesce into a single larger transfer
// (blockdev.VectorReader) that scatters into each request's own
// buffer, preserving the zero-copy contract. At most Depth transfers
// are in flight at once; the default of 1 is the paper's
// one-I/O-per-disk invariant.
//
// The scheduler is deterministic-time: it never reads the wall clock
// itself (deadline lateness uses the injected Options.Now) and it uses
// no timers — the loop is work-conserving, woken by submissions, and
// deadlines only order and bound rounds.
package iosched

import (
	"errors"
	"sort"
	"sync"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/trace"
)

// ErrClosed completes every request still pending when the scheduler
// shuts down, and any request submitted after.
var ErrClosed = errors.New("iosched: scheduler closed")

// DefaultSlack is the round's deadline band: requests due within this
// much of the most urgent pending request ride the same elevator
// sweep. One 256 KB page of 1.5 Mbit/s video plays for ~1.4 s, so a
// quarter second groups the read-ahead of concurrently admitted streams
// without letting a lagging stream's page queue behind a full sweep of
// comfortable ones.
const DefaultSlack = 250 * time.Millisecond

// A Request is one page read: fill Buf from the device at Off, wanted
// by Deadline (the delivery time of the page's first packet; the zero
// Deadline means "no deadline" and sorts most urgent, keeping
// deadline-less traffic unstarved). The scheduler reads directly into
// Buf — callers point it at PageRef/cache page memory and must keep
// that memory pinned until completion.
//
// C receives the request itself back when service completes, with Err
// set. It must be buffered (capacity ≥ 1): the scheduler never blocks
// on completion delivery. Requests are caller-owned and reusable after
// completion, so a steady-state player allocates none.
type Request struct {
	Off      int64
	Buf      []byte
	Deadline time.Time
	C        chan *Request
	Err      error

	next *Request // intrusive pending list; scheduler-owned
}

// Options configures a Scheduler.
type Options struct {
	// Depth bounds in-flight device transfers. 0 or 1 is the paper's
	// one-I/O-per-disk invariant; raise it for devices (arrays, SSDs)
	// that benefit from internal queueing.
	Depth int
	// Now supplies the clock for deadline-lateness accounting; nil
	// disables it (ordering and round bounds never need the clock).
	Now func() time.Time
}

// Scheduler services page reads for one physical volume. Create one
// per member disk: striped content then fans a player's read-ahead of
// K consecutive pages across min(K, width) schedulers in parallel.
type Scheduler struct {
	dev  blockdev.BlockDevice
	opts Options

	mu       sync.Mutex
	pending  *Request
	npending int64
	closed   bool
	started  bool
	stats    trace.IOSchedStats

	head int64 // device offset after the last transfer; loop-owned

	wake  chan struct{}
	issue chan issueItem
	quit  chan struct{}
	done  chan struct{}
	once  sync.Once
}

// issueItem is one coalesced transfer handed from the round loop to a
// worker; wg is the round barrier.
type issueItem struct {
	group []*Request
	wg    *sync.WaitGroup
}

// New builds a scheduler over dev. Goroutines start lazily on the
// first Submit; an idle scheduler costs nothing.
func New(dev blockdev.BlockDevice, opts Options) *Scheduler {
	if opts.Depth < 1 {
		opts.Depth = 1
	}
	return &Scheduler{
		dev:   dev,
		opts:  opts,
		wake:  make(chan struct{}, 1),
		issue: make(chan issueItem),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Submit queues one request. It never blocks: completion (including
// the immediate ErrClosed after Close) arrives on r.C.
func (s *Scheduler) Submit(r *Request) {
	if r.C == nil || cap(r.C) == 0 {
		panic("iosched: Request.C must be a buffered channel")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		r.Err = ErrClosed
		r.C <- r
		return
	}
	if !s.started {
		s.started = true
		go s.loop()
		for i := 0; i < s.opts.Depth; i++ {
			go s.worker()
		}
	}
	r.Err = nil
	r.next = s.pending
	s.pending = r
	s.npending++
	s.stats.Requests++
	if s.npending > s.stats.QueuePeak {
		s.stats.QueuePeak = s.npending
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Close stops the scheduler: the in-flight round finishes, every
// still-pending request completes with ErrClosed, and the goroutines
// exit before Close returns. Safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		started := s.started
		s.mu.Unlock()
		if started {
			<-s.done
		}
		return nil
	}
	s.closed = true
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil // never ran; nothing pending by construction
	}
	close(s.quit)
	<-s.done
	return nil
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() trace.IOSchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// loop is the duty cycle: wait for work, then serve round after round
// until the queue drains or the scheduler closes.
func (s *Scheduler) loop() {
	defer close(s.done)
	defer close(s.issue) // workers exit when the round pipeline closes
	for {
		select {
		case <-s.quit:
			s.failPending()
			return
		case <-s.wake:
		}
		for {
			select {
			case <-s.quit:
				s.failPending()
				return
			default:
			}
			round := s.takeRound()
			if round == nil {
				break
			}
			s.serve(round)
		}
	}
}

// takeRound extracts the requests within DefaultSlack of the earliest
// pending deadline — the round the most urgent requests bound.
func (s *Scheduler) takeRound() []*Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == nil {
		return nil
	}
	min := s.pending.Deadline
	for r := s.pending.next; r != nil; r = r.next {
		if r.Deadline.Before(min) {
			min = r.Deadline
		}
	}
	limit := min.Add(DefaultSlack)
	var round []*Request
	var rest *Request
	for r := s.pending; r != nil; {
		next := r.next
		r.next = nil
		if r.Deadline.After(limit) {
			r.next = rest
			rest = r
		} else {
			round = append(round, r)
		}
		r = next
	}
	s.pending = rest
	s.npending -= int64(len(round))
	s.stats.Rounds++
	return round
}

// serve runs one round: C-SCAN order from the current head, coalesce
// adjacent requests into single transfers, at most Depth in flight,
// and a barrier before the next round begins.
func (s *Scheduler) serve(round []*Request) {
	sort.Slice(round, func(i, j int) bool { return round[i].Off < round[j].Off })
	// One ascending sweep starting at the head, wrapping once to the
	// lowest offsets (C-SCAN: the return seek is not used for service).
	k := sort.Search(len(round), func(i int) bool { return round[i].Off >= s.head })
	ordered := make([]*Request, 0, len(round))
	ordered = append(ordered, round[k:]...)
	ordered = append(ordered, round[:k]...)

	var wg sync.WaitGroup
	for i := 0; i < len(ordered); {
		j := i + 1
		for j < len(ordered) && ordered[j].Off == ordered[j-1].Off+int64(len(ordered[j-1].Buf)) {
			j++
		}
		group := ordered[i:j]
		last := group[len(group)-1]
		seek := group[0].Off - s.head
		if seek < 0 {
			seek = -seek
		}
		s.head = last.Off + int64(len(last.Buf))
		s.mu.Lock()
		s.stats.Reads++
		s.stats.Coalesced += int64(len(group) - 1)
		s.stats.SeekBytes += seek
		s.mu.Unlock()
		wg.Add(1)
		s.issue <- issueItem{group: group, wg: &wg}
		i = j
	}
	wg.Wait()
}

// worker services coalesced transfers until the round pipeline closes.
func (s *Scheduler) worker() {
	for it := range s.issue {
		var err error
		if len(it.group) == 1 {
			r := it.group[0]
			err = s.dev.ReadAt(r.Buf, r.Off)
		} else {
			bufs := make([][]byte, len(it.group))
			for i, r := range it.group {
				bufs[i] = r.Buf
			}
			// A coalesced transfer shares one fate: a device error fails
			// every rider (the fallback path in ReadVector stops at the
			// first failing buffer).
			err = blockdev.ReadVector(s.dev, it.group[0].Off, bufs...)
		}
		for _, r := range it.group {
			s.complete(r, err)
		}
		it.wg.Done()
	}
}

// complete finishes one request: lateness accounting, then hand the
// request back on its channel.
func (s *Scheduler) complete(r *Request, err error) {
	if s.opts.Now != nil && !r.Deadline.IsZero() {
		if late := s.opts.Now().Sub(r.Deadline); late > 0 {
			s.mu.Lock()
			s.stats.Late++
			if ms := late.Milliseconds(); ms > s.stats.MaxLateMs {
				s.stats.MaxLateMs = ms
			}
			s.mu.Unlock()
		}
	}
	r.Err = err
	r.C <- r
}

// failPending completes everything still queued with ErrClosed, so no
// submitter is left waiting across shutdown.
func (s *Scheduler) failPending() {
	s.mu.Lock()
	p := s.pending
	s.pending = nil
	s.npending = 0
	s.mu.Unlock()
	for p != nil {
		next := p.next
		p.next = nil
		p.Err = ErrClosed
		p.C <- p
		p = next
	}
}
