package trace

import "fmt"

// IOSchedStats is a point-in-time snapshot of one volume's I/O
// scheduler counters (internal/iosched): how many page requests were
// served, in how many C-SCAN sweeps, how much head travel the elevator
// ordering spent, and how the deadlines fared. The MSU ships
// these to the Coordinator alongside cache reports; calliope-client
// status prints them per disk.
type IOSchedStats struct {
	// Requests counts reads submitted to the scheduler: one a page, two
	// for a page read head first (its head, then the rest).
	Requests int64 `json:"requests"`
	// Rounds counts C-SCAN sweeps: the first transfer and every wrap of
	// the head back to a lower offset. Requests/Rounds is the mean
	// number of requests served per sweep.
	Rounds int64 `json:"rounds"`
	// Reads counts the transfers issued, one device call each: what a
	// counting device under the scheduler must read too.
	Reads int64 `json:"reads"`
	// Coalesced counts requests that rode an adjacent request's
	// transfer instead of issuing their own.
	Coalesced int64 `json:"coalesced"`
	// SeekBytes sums the absolute head travel between consecutive
	// transfers — the quantity elevator ordering minimizes.
	SeekBytes int64 `json:"seekBytes"`
	// QueuePeak is the deepest pending queue observed.
	QueuePeak int64 `json:"queuePeak"`
	// Late counts read-ahead that under-ran: requests completed after a
	// deadline that was still ahead when they were submitted (a request
	// already due at submission — a stream's first page — is urgent, not
	// late). MaxLateMs is the worst such lateness, in milliseconds.
	Late      int64 `json:"late"`
	MaxLateMs int64 `json:"maxLateMs"`
}

// Sub returns the counter deltas since an earlier snapshot (QueuePeak
// and MaxLateMs are high-water marks, not counters: the later snapshot
// wins).
func (s IOSchedStats) Sub(prev IOSchedStats) IOSchedStats {
	return IOSchedStats{
		Requests:  s.Requests - prev.Requests,
		Rounds:    s.Rounds - prev.Rounds,
		Reads:     s.Reads - prev.Reads,
		Coalesced: s.Coalesced - prev.Coalesced,
		SeekBytes: s.SeekBytes - prev.SeekBytes,
		QueuePeak: s.QueuePeak,
		Late:      s.Late - prev.Late,
		MaxLateMs: s.MaxLateMs,
	}
}

// Add merges two snapshots (e.g. one per member volume into a striped
// logical disk's total). High-water marks take the max.
func (s IOSchedStats) Add(o IOSchedStats) IOSchedStats {
	out := IOSchedStats{
		Requests:  s.Requests + o.Requests,
		Rounds:    s.Rounds + o.Rounds,
		Reads:     s.Reads + o.Reads,
		Coalesced: s.Coalesced + o.Coalesced,
		SeekBytes: s.SeekBytes + o.SeekBytes,
		QueuePeak: s.QueuePeak,
		Late:      s.Late + o.Late,
		MaxLateMs: s.MaxLateMs,
	}
	if o.QueuePeak > out.QueuePeak {
		out.QueuePeak = o.QueuePeak
	}
	if o.MaxLateMs > out.MaxLateMs {
		out.MaxLateMs = o.MaxLateMs
	}
	return out
}

// RoundSize reports the mean requests per sweep, 0 with no sweeps.
func (s IOSchedStats) RoundSize() float64 {
	if s.Rounds > 0 {
		return float64(s.Requests) / float64(s.Rounds)
	}
	return 0
}

func (s IOSchedStats) String() string {
	return fmt.Sprintf("reqs %d rounds %d (%.1f/round) reads %d coalesced %d seek %dMB peak %d late %d (max %dms)",
		s.Requests, s.Rounds, s.RoundSize(), s.Reads, s.Coalesced, s.SeekBytes>>20, s.QueuePeak, s.Late, s.MaxLateMs)
}
