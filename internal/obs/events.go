package obs

import (
	"sync"
	"time"
)

// Event kinds recorded on the Coordinator's timeline. Each event is
// stamped with whichever of session/group/stream/MSU/disk applies, so
// an operator can reconstruct a single stream's life — admit, queue,
// dispatch, migrate, EOF — or a piece of content's replication story.
const (
	EvAdmit      = "admit"            // session's play admitted; per-stream dispatch follows
	EvQueue      = "queue"            // play blocked waiting for resources (§2.2 queueing)
	EvDispatch   = "dispatch"         // one stream placed on an MSU disk
	EvMigrate    = "migrate"          // stream re-dispatched after an MSU failure
	EvLost       = "lost"             // group lost: no surviving replica to migrate to
	EvEOF        = "eof"              // stream ended (cause in Detail)
	EvCacheRatio = "cache-ratio"      // a disk's cache hit ratio moved materially
	EvReplPlan   = "replicate-plan"   // replication planner reserved resources for a copy
	EvReplCommit = "replicate-commit" // replica committed and entered the ledger
	EvReplDrop   = "replica-drop"     // a replica left the catalog (why in Detail: deleted, cold, no longer declared)
	EvReplAbort  = "replicate-abort"  // replication aborted (preempted, failed, or shutdown)
	EvRecCommit  = "record-commit"    // a recording's content entered the catalog (size, length in Detail)
	EvMSUDown    = "msu-down"         // MSU connection lost
	EvMSUUp      = "msu-up"           // MSU registered (or re-registered)
)

// An Event is one structured entry on the timeline.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	Session uint64    `json:"session,omitempty"`
	Group   uint64    `json:"group,omitempty"`
	Stream  uint64    `json:"stream,omitempty"`
	MSU     string    `json:"msu,omitempty"`
	Disk    int       `json:"disk"` // -1 when no disk applies
	Content string    `json:"content,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// A Ring is a bounded, ordered event buffer. Appends assign strictly
// increasing sequence numbers; once full, the oldest event is
// overwritten in place, so an append costs the same at any capacity.
// Readers page through with Since, and can long-poll on Updated for the
// `events --follow` tail.
type Ring struct {
	now func() time.Time

	mu   sync.Mutex
	buf  []Event // fills to its capacity, then circular: buf[head] is the oldest
	head int
	next uint64 // seq the next append will get (first is 1)
	// updated is closed by the next Append; made only when someone waits,
	// so an append with nobody following allocates nothing.
	updated chan struct{}
}

// NewRing builds a ring holding at most cap events, stamping appends
// with now (defaulting to time.Now, a value reference).
func NewRing(cap int, now func() time.Time) *Ring {
	if cap <= 0 {
		cap = DefaultEventCap
	}
	if now == nil {
		now = time.Now
	}
	return &Ring{
		now:  now,
		buf:  make([]Event, 0, cap),
		next: 1,
	}
}

// Append stamps ev with the next sequence number and the ring's clock,
// stores it (evicting the oldest if full), wakes any Updated waiters,
// and returns the assigned sequence. No-op (returning 0) on nil.
func (r *Ring) Append(ev Event) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	ev.Seq = r.next
	ev.Time = r.now()
	r.next++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.head] = ev
		r.head = (r.head + 1) % len(r.buf)
	}
	if r.updated != nil {
		close(r.updated)
		r.updated = nil
	}
	r.mu.Unlock()
	return ev.Seq
}

// Updated returns a channel closed at the next Append; callers grab a
// fresh one per wait.
func (r *Ring) Updated() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.updated == nil {
		r.updated = make(chan struct{})
	}
	return r.updated
}

// at returns the i-th oldest event held. Callers hold mu.
func (r *Ring) at(i int) *Event {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// Since returns up to max events with Seq > seq (all of them when max
// <= 0), optionally filtered to one stream (stream > 0), plus the
// highest sequence assigned so far — pass it back as the next call's
// seq to page or follow the timeline.
func (r *Ring) Since(seq uint64, stream uint64, max int) ([]Event, uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Sequence numbers held are contiguous, oldest first: start at seq+1.
	start := 0
	if oldest := r.next - uint64(len(r.buf)); seq >= oldest {
		start = int(min(seq-oldest+1, uint64(len(r.buf))))
	}
	var out []Event
	for i := start; i < len(r.buf); i++ {
		ev := r.at(i)
		if stream != 0 && ev.Stream != stream {
			continue
		}
		out = append(out, *ev)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out, r.next - 1
}

// Tail returns the most recent n events (all when n <= 0), oldest first.
func (r *Ring) Tail(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := 0
	if n > 0 && len(r.buf) > n {
		start = len(r.buf) - n
	}
	out := make([]Event, 0, len(r.buf)-start)
	for i := start; i < len(r.buf); i++ {
		out = append(out, *r.at(i))
	}
	return out
}
