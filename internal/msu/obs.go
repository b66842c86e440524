package msu

import (
	"time"

	"calliope/internal/obs"
)

// msuMetrics holds the MSU's pre-registered instrument handles, built
// once in New. Per DESIGN.md §3i the per-packet path must stay
// 0 allocs/op with them switched on: it touches only these atomics,
// never a map lookup, interface or lock.
type msuMetrics struct {
	// reg is the MSU-local registry; reportCache ships its cumulative
	// snapshot to the Coordinator, which merges deltas cluster-wide.
	reg *obs.Registry

	packets  *obs.Counter   // delivery_packets_total
	bytes    *obs.Counter   // delivery_bytes_total
	lateness *obs.Histogram // delivery_lateness_seconds (send time vs pacing target)
	startup  *obs.Histogram // delivery_startup_seconds (a stream told to play → its first datagram written)

	pagesRead *obs.Counter // disk_pages_read_total (IB-tree pages from disk)
	cacheHits *obs.Counter // cache_page_hits_total (pages served from RAM)
	pinned    *obs.Gauge   // readahead_pinned_pages (pages held against all streams' budgets)
	// readahead_lent_pages: the pages of those pinned past the streams'
	// reservations, lent by their disks' pools on a contended disk.
	lent       *obs.Gauge
	headStarts *obs.Counter // delivery_head_starts_total (cues started from a resident head)
	heads      *obs.Gauge   // resident_heads (titles whose head is in RAM)
	headBytes  *obs.Gauge   // resident_head_bytes

	streams     *obs.Counter // msu_streams_started_total
	eofs        *obs.Counter // delivery_eof_total
	transferOut *obs.Counter // transfer_bytes_out_total (replication copy-outs)
}

// startupBuckets are delivery_startup_seconds' edges. What separates one
// start from another is what it waited for on the disk: nothing (a cached
// page or a resident head: ~1 ms), one positioning and the head of a page (~15 ms on the
// disk the bench models), a whole page (~45), a neighbour's transfer
// ahead of that. obs.DefaultLatencyBuckets steps from 10 ms to 50 and
// puts all but the first in one bucket; these step by a page transfer or
// less across that range.
var startupBuckets = []time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	15 * time.Millisecond,
	20 * time.Millisecond,
	30 * time.Millisecond,
	40 * time.Millisecond,
	50 * time.Millisecond,
	75 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	5 * time.Second,
}

func newMSUMetrics(r *obs.Registry) msuMetrics {
	return msuMetrics{
		reg:         r,
		packets:     r.Counter("delivery_packets_total"),
		bytes:       r.Counter("delivery_bytes_total"),
		lateness:    r.Histogram("delivery_lateness_seconds", obs.DefaultLatencyBuckets),
		startup:     r.Histogram("delivery_startup_seconds", startupBuckets),
		pagesRead:   r.Counter("disk_pages_read_total"),
		cacheHits:   r.Counter("cache_page_hits_total"),
		pinned:      r.Gauge("readahead_pinned_pages"),
		lent:        r.Gauge("readahead_lent_pages"),
		headStarts:  r.Counter("delivery_head_starts_total"),
		heads:       r.Gauge("resident_heads"),
		headBytes:   r.Gauge("resident_head_bytes"),
		streams:     r.Counter("msu_streams_started_total"),
		eofs:        r.Counter("delivery_eof_total"),
		transferOut: r.Counter("transfer_bytes_out_total"),
	}
}
