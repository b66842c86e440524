package coordinator

import (
	"net/http"
	"sort"
	"time"

	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// Observability (DESIGN.md §3i). The Coordinator owns the cluster's
// metrics registry and event timeline and counts one way: a
// pre-registered handle below, bumped beside the event or log line of
// the thing counted; MSU counters arrive as snapshot deltas on cache
// reports. The sizes of the core's tables are overlaid at snapshot time
// rather than kept as live gauges. StatusV2 is the one report of it.

// coordMetrics holds the Coordinator's pre-registered handles so no
// request path does a name lookup to count.
type coordMetrics struct {
	requests   *obs.Counter   // requests_total (every inbound message)
	admitted   *obs.Counter   // admission_admitted_total
	dispatched *obs.Counter   // dispatch_total (streams started, group members counted singly)
	queued     *obs.Counter   // admission_queued_total
	rejected   *obs.Counter   // admission_rejected_total
	migrations *obs.Counter   // migrations_total (groups re-dispatched)
	lost       *obs.Counter   // groups_lost_total
	ended      *obs.Counter   // streams_ended_total
	records    *obs.Counter   // records_started_total
	queueWait  *obs.Histogram // queue_wait_seconds (requests admitted after parking)
	// applyErrors counts mutations the administrative database refused
	// (a failed journal write), whether the request was refused in turn
	// or had no one to refuse.
	applyErrors *obs.Counter // admindb_apply_errors_total
	// parked is the requests waiting on the pending queue right now —
	// plays, recordings and orphaned groups alike.
	parked *obs.Gauge // queued_plays
	// lostRecordings is the in-flight recordings a Coordinator crash
	// interrupted, found in the database at start.
	lostRecordings *obs.Gauge // lost_recordings
	// The replication policy's transfers: ordered, committed, torn down
	// before commit (MSU failure, delete, preemption, transfer error, a
	// refused commit), cold replicas shed, and payload bytes committed.
	replPlanned *obs.Counter // repl_planned_total
	replDone    *obs.Counter // repl_completed_total
	replAborted *obs.Counter // repl_aborted_total
	replDropped *obs.Counter // repl_dropped_total
	replBytes   *obs.Counter // repl_bytes_copied_total
}

func newCoordMetrics(r *obs.Registry) coordMetrics {
	return coordMetrics{
		requests:   r.Counter(wire.CounterRequests),
		admitted:   r.Counter("admission_admitted_total"),
		dispatched: r.Counter("dispatch_total"),
		queued:     r.Counter("admission_queued_total"),
		rejected:   r.Counter("admission_rejected_total"),
		migrations: r.Counter("migrations_total"),
		lost:       r.Counter("groups_lost_total"),
		ended:      r.Counter("streams_ended_total"),
		records:    r.Counter("records_started_total"),
		queueWait:  r.Histogram("queue_wait_seconds", obs.DefaultLatencyBuckets),

		applyErrors:    r.Counter("admindb_apply_errors_total"),
		parked:         r.Gauge(wire.GaugeQueuedPlays),
		lostRecordings: r.Gauge(wire.GaugeLostRecs),
		replPlanned:    r.Counter(wire.CounterReplPlanned),
		replDone:       r.Counter(wire.CounterReplDone),
		replAborted:    r.Counter(wire.CounterReplAborted),
		replDropped:    r.Counter(wire.CounterReplDropped),
		replBytes:      r.Counter(wire.CounterReplBytes),
	}
}

// event appends one entry to the timeline, stamped by Config.Now.
func (c *engine) event(ev obs.Event) { c.obs.Events().Append(ev) }

// ObsSnapshot flattens the cluster's metrics: the registry's instruments
// overlaid with the gauges derived from the core's tables.
func (c *Coordinator) ObsSnapshot() obs.Snapshot {
	s := c.obs.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.overlayLocked(&s)
	return s
}

// overlayLocked writes the gauges that are the sizes of the core's
// tables into s.
func (c *engine) overlayLocked(s *obs.Snapshot) {
	available := 0
	for _, m := range c.msus {
		if m.alive {
			available++
		}
	}
	s.Gauges[wire.GaugeMSUs] = int64(len(c.msus))
	s.Gauges[wire.GaugeMSUsAvailable] = int64(available)
	s.Gauges[wire.GaugeActiveStreams] = int64(len(c.active))
	s.Gauges[wire.GaugeContents] = int64(len(c.db.Contents()))
	s.Gauges[wire.GaugeSessions] = int64(len(c.sessions))
	s.Gauges[wire.GaugeReplActive] = int64(len(c.replications))
}

// statusV2 answers TypeStatusV2: the snapshot plus the structured
// per-disk and per-NIC ledger detail.
func (c *Coordinator) statusV2() *wire.StatusV2 {
	s := c.obs.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.overlayLocked(&s)
	st := &wire.StatusV2{Version: wire.ProtoVersion, Snapshot: s}
	for _, m := range c.msus {
		if m.net != nil {
			st.Net = append(st.Net, wire.NetUsage{
				MSU:   m.id,
				Alive: m.alive,
				Used:  units.BitRate(m.net.Reserved()),
				Cap:   units.BitRate(m.net.Capacity()),
			})
		}
		for i, d := range m.disks {
			du := wire.DiskUsage{
				Disk:          core.DiskID{MSU: m.id, N: i},
				Alive:         m.alive,
				BandwidthUsed: units.BitRate(d.bw.Reserved()),
				BandwidthCap:  units.BitRate(d.bw.Capacity()),
				SpaceUsed:     units.ByteSize((d.space.Reserved() + d.space.Standing()) * int64(d.blockSize)),
				SpaceCap:      units.ByteSize(d.space.Capacity() * int64(d.blockSize)),
				Cache:         d.cache,
				IO:            d.io,
			}
			for _, cov := range d.coverage {
				du.Cached = append(du.Cached, cov)
			}
			sort.Slice(du.Cached, func(a, b int) bool { return du.Cached[a].Name < du.Cached[b].Name })
			st.Disks = append(st.Disks, du)
		}
	}
	sort.Slice(st.Disks, func(i, j int) bool {
		a, b := st.Disks[i].Disk, st.Disks[j].Disk
		return a.MSU < b.MSU || a.MSU == b.MSU && a.N < b.N
	})
	sort.Slice(st.Net, func(i, j int) bool { return st.Net[i].MSU < st.Net[j].MSU })
	return st
}

// Events pages through the Coordinator's event timeline (the HTTP
// /events endpoint and the TypeEvents RPC share it).
func (c *Coordinator) Events(since, stream uint64, max int) ([]obs.Event, uint64) {
	return c.obs.Events().Since(since, stream, max)
}

// HTTPHandler serves the opt-in observability endpoint: Prometheus
// metrics at /metrics, the JSON event tail at /events, and pprof under
// /debug/pprof/ (cmd/coordinator's -http flag).
func (c *Coordinator) HTTPHandler() http.Handler {
	return obs.NewHTTPHandler(c.ObsSnapshot, c.Events)
}

// maxEventsWait bounds a long-poll so an abandoned follower cannot park
// its request goroutine forever.
const maxEventsWait = 30 * time.Second

// events answers the TypeEvents RPC. With WaitMillis set and nothing
// newer than Since, the request parks until an event lands or the wait
// expires — requests run in their own goroutines (wire.Peer), so a
// parked follower blocks nobody.
func (c *Coordinator) events(req wire.EventsRequest) (*wire.EventsReply, error) {
	ring := c.obs.Events()
	evs, next := ring.Since(req.Since, req.Stream, req.Max)
	if len(evs) == 0 && req.WaitMillis > 0 {
		t := time.NewTimer(min(time.Duration(req.WaitMillis)*time.Millisecond, maxEventsWait))
		defer t.Stop()
	poll:
		for len(evs) == 0 {
			ch := ring.Updated()
			// Re-check after arming the wait: an append between the
			// first Since and Updated must not be missed.
			evs, next = ring.Since(req.Since, req.Stream, req.Max)
			if len(evs) > 0 {
				break
			}
			select {
			case <-ch:
			case <-t.C:
				break poll
			}
		}
	}
	if evs == nil {
		evs = []obs.Event{}
	}
	return &wire.EventsReply{Events: evs, Next: next}, nil
}
