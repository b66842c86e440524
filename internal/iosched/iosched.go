// Package iosched is the MSU's per-disk I/O scheduler (§2.3.3, §2.2.1).
//
// The paper's MSU owns its disks and schedules block I/O itself: a duty
// cycle with one I/O in flight per disk, and elevator ordering measured
// at ~6% over round-robin. This package brings that discipline to the
// live delivery path: every player's page read is submitted to the
// volume's Scheduler instead of hitting the device directly, so N
// concurrent players no longer degenerate to random-order,
// unbounded-concurrency I/O.
//
// One goroutine issues one transfer at a time and picks again after
// each. The pick looks only at the pending requests whose deadlines fall
// within DefaultSlack of the earliest pending deadline — the band the
// most urgent requests bound — and takes the next of them in C-SCAN
// order by device offset (ascending from the current head position,
// wrapping to the lowest offset when nothing lies ahead). Because the
// band is recomputed per transfer, an urgent arrival waits for the one
// transfer in flight and never for a sweep of comfortable read-ahead.
// A pending request that starts exactly where the transfer ends rides it
// as one vectored read (blockdev.VectorReader) scattered into each
// request's own buffer, up to maxRun requests: always when it is of the
// band, and whatever its deadline when the disk is contended — more are
// waiting than one transfer can carry, so the positioning time a longer
// transfer saves goes to someone still in line. A disk that keeps up
// has one page a stream pending and nothing to join; one that is behind
// holds each stream's ring and reads runs, not pages. A request marked
// Alone is a transfer by itself, leading no riders and riding no one's:
// a page read head first is its head, Alone, submitted together with the
// rest, so the head completes as soon as its own bytes are in and the
// rest — as urgent, and starting where the head ended — is the next pick
// unless a request more than DefaultSlack more urgent is pending.
//
// The scheduler is deterministic-time: it never reads the wall clock
// itself (deadline lateness uses the injected Options.Now) and it uses
// no timers — the loop is work-conserving, woken by submissions, and
// deadlines only order service.
package iosched

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/trace"
)

// ErrClosed completes every request still pending when the scheduler
// shuts down, and any request submitted after.
var ErrClosed = errors.New("iosched: scheduler closed")

// DefaultSlack is the deadline band: requests due within this much of
// the most urgent pending request ride the same elevator sweep. One
// 256 KB page of 1.5 Mbit/s video plays for ~1.4 s, so a quarter second
// groups the read-ahead of concurrently admitted streams without
// letting a lagging stream's page queue behind a full sweep of
// comfortable ones.
const DefaultSlack = 250 * time.Millisecond

// maxRun caps one transfer: a player's whole read-ahead ring (1 MB of
// 256 KB pages), which is also the longest an urgent arrival waits.
const maxRun = 4

// A Request is one read — a page, or part of one: fill Buf from the
// device at Off, wanted by Deadline (the delivery time of the page's
// first packet; the zero Deadline means "no deadline" and sorts most
// urgent, keeping deadline-less traffic unstarved). The scheduler reads
// directly into Buf — callers point it at PageRef/cache page memory and
// must keep that memory pinned until completion.
//
// C receives the request itself back when service completes, with Err
// set. It must be buffered, with room for every request that completes
// on it: the scheduler never blocks on completion delivery. Requests are
// caller-owned and reusable after completion, so a steady-state player
// allocates none.
type Request struct {
	Off      int64
	Buf      []byte
	Deadline time.Time
	C        chan *Request
	Err      error
	// Alone keeps the request's transfer to itself: it leads no riders
	// and rides no one's, so it completes once its own bytes are in.
	Alone bool

	// due records that Deadline had already passed at Submit (a stream's
	// first page is wanted "now"): such a request is urgent, and no
	// service time could have made it punctual, so it is not counted late.
	due bool
}

// Options configures a Scheduler.
type Options struct {
	// Now supplies the clock for deadline-lateness accounting; nil
	// disables it (ordering never needs the clock).
	Now func() time.Time
}

// Scheduler services page reads for one physical volume. Create one
// per member disk: striped content then fans a player's read-ahead of
// K consecutive pages across min(K, width) schedulers in parallel.
type Scheduler struct {
	dev  blockdev.BlockDevice
	opts Options

	mu      sync.Mutex
	pending []*Request
	closed  bool
	started bool
	stats   trace.IOSchedStats
	// outstanding counts the requests submitted and not yet completed:
	// pending, or in the transfer under way (Contended).
	outstanding atomic.Int32

	// Loop-owned: the device offset after the last transfer, and the
	// transfer being assembled with its scatter list (reused, so a pick
	// and a transfer allocate nothing).
	head  int64
	group []*Request
	bufs  [maxRun][]byte

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// New builds a scheduler over dev. Its goroutine starts lazily on the
// first Submit; an idle scheduler costs nothing.
func New(dev blockdev.BlockDevice, opts Options) *Scheduler {
	return &Scheduler{
		dev:  dev,
		opts: opts,
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Submit queues requests, together: the next pick sees all of them or
// none. It never blocks: completion (including the immediate ErrClosed
// after Close) arrives on each request's C.
func (s *Scheduler) Submit(rs ...*Request) {
	for _, r := range rs {
		if r.C == nil || cap(r.C) == 0 {
			panic("iosched: Request.C must be a buffered channel")
		}
		r.Err = nil
		r.due = s.opts.Now != nil && !r.Deadline.IsZero() && !s.opts.Now().Before(r.Deadline)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		for _, r := range rs {
			r.finish(ErrClosed)
		}
		return
	}
	if !s.started {
		s.started = true
		go s.loop()
	}
	s.pending = append(s.pending, rs...)
	s.outstanding.Add(int32(len(rs)))
	s.stats.Requests += int64(len(rs))
	if n := int64(len(s.pending)); n > s.stats.QueuePeak {
		s.stats.QueuePeak = n
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Close stops the scheduler: the transfer in flight finishes, every
// still-pending request completes with ErrClosed, and the goroutine
// exits before Close returns. Safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	started := s.started
	s.mu.Unlock()
	if !started {
		return nil // never ran; nothing pending by construction
	}
	if first {
		close(s.quit)
	}
	<-s.done
	return nil
}

// Contended reports, without taking the scheduler's lock, whether the
// requests not yet completed — pending, or in the transfer under way —
// are more than one transfer can carry: the run rule's test (pick) as the
// pick that started the transfer under way made it, with what has
// arrived since. Under it read-ahead rides whatever its deadline, and a
// player may stage past its ramp (msu's fetcher.budget).
func (s *Scheduler) Contended() bool { return s.outstanding.Load() > maxRun }

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() trace.IOSchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// loop is the duty cycle: pick, transfer, pick again, parking only
// when nothing is pending.
func (s *Scheduler) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			s.failPending()
			return
		default:
		}
		group := s.pick()
		if group == nil {
			select {
			case <-s.quit:
				s.failPending()
				return
			case <-s.wake:
			}
			continue
		}
		s.transfer(group)
	}
}

// pick takes the next transfer off the queue: among the requests
// within DefaultSlack of the earliest pending deadline, the one at the
// lowest offset at or past the head — or, with none ahead, the lowest
// of all, which starts a new sweep — extended over the requests that
// continue it on the device (see continues). Returns nil on an empty
// queue.
func (s *Scheduler) pick() []*Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return nil
	}
	min := s.pending[0].Deadline
	for _, r := range s.pending[1:] {
		if r.Deadline.Before(min) {
			min = r.Deadline
		}
	}
	limit := min.Add(DefaultSlack)
	ahead, lowest := -1, -1
	for i, r := range s.pending {
		if r.Deadline.After(limit) {
			continue
		}
		if lowest < 0 || r.Off < s.pending[lowest].Off {
			lowest = i
		}
		if r.Off >= s.head && (ahead < 0 || r.Off < s.pending[ahead].Off) {
			ahead = i
		}
	}
	first := ahead
	if first < 0 {
		first = lowest
	}
	if ahead < 0 || s.stats.Reads == 0 {
		s.stats.Rounds++ // a sweep begins: the first transfer, or a wrap of the head
	}
	seek := s.pending[first].Off - s.head
	if seek < 0 {
		seek = -seek
	}
	s.group = s.group[:0]
	contended := len(s.pending) > maxRun // whatever this transfer takes, someone is still in line
	for i := first; i >= 0; i = s.continues(limit, contended) {
		r := s.pending[i]
		last := len(s.pending) - 1
		s.pending[i] = s.pending[last]
		s.pending[last] = nil
		s.pending = s.pending[:last]
		s.group = append(s.group, r)
		s.head = r.Off + int64(len(r.Buf))
	}
	s.stats.Reads++
	s.stats.Coalesced += int64(len(s.group) - 1)
	s.stats.SeekBytes += seek
	return s.group
}

// continues finds a pending request that starts exactly where the
// transfer being assembled ends and may ride it, or -1: one of the
// band, or on a contended disk any — there the arm time saved goes to
// whoever is in line, while an idle or lightly loaded disk keeps
// one-page transfers and so the cut-in latency of a new viewer's first
// page. A transfer led by an Alone request takes no riders, and an Alone
// request rides no one's.
func (s *Scheduler) continues(limit time.Time, contended bool) int {
	if len(s.group) == maxRun || s.group[0].Alone {
		return -1
	}
	for i, r := range s.pending {
		if r.Off == s.head && !r.Alone && (contended || !r.Deadline.After(limit)) {
			return i
		}
	}
	return -1
}

// finish hands r back with err.
func (r *Request) finish(err error) {
	r.Err = err
	r.C <- r
}

// transfer services one coalesced group in one device call and completes
// its requests. A coalesced transfer shares one fate: a device error
// fails every rider (the fallback path in ReadVector stops at the first
// failing buffer).
func (s *Scheduler) transfer(group []*Request) {
	bufs := s.bufs[:len(group)]
	for i, r := range group {
		bufs[i] = r.Buf
	}
	err := blockdev.ReadVector(s.dev, group[0].Off, bufs...)
	clear(bufs) // retain no page memory between transfers
	s.outstanding.Add(-int32(len(group)))
	for i, r := range group {
		group[i] = nil // the request, and the page under it, are the caller's again
		s.complete(r, err)
	}
}

// complete finishes one request: lateness accounting, then hand the
// request back on its channel.
func (s *Scheduler) complete(r *Request, err error) {
	if s.opts.Now != nil && !r.Deadline.IsZero() && !r.due {
		if late := s.opts.Now().Sub(r.Deadline); late > 0 {
			s.mu.Lock()
			s.stats.Late++
			if ms := late.Milliseconds(); ms > s.stats.MaxLateMs {
				s.stats.MaxLateMs = ms
			}
			s.mu.Unlock()
		}
	}
	r.finish(err)
}

// failPending completes everything still queued with ErrClosed, so no
// submitter is left waiting across shutdown.
func (s *Scheduler) failPending() {
	s.mu.Lock()
	pending := s.pending
	s.pending = nil
	s.outstanding.Add(-int32(len(pending)))
	s.mu.Unlock()
	for _, r := range pending {
		r.finish(ErrClosed)
	}
}
