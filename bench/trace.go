package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A traced run records a span at each layer boundary the bench can see
// from outside the program — around its own calls into the client
// library and inside its device wrapper — keeps them in memory, and
// writes them out when the run ends. Spans of one request share an id
// (the stream id PlayOK reported); a child names its parent.
//
//	play                due → first packet          (root, one per play)
//	  play.rpc          Play sent → PlayOK           Coordinator + wire + admindb + MSU group set-up
//	  play.first_page   PlayOK → title's page 0 read   queue wait on the spindle is its self time
//	    disk.read       one per device transfer
//	  play.first_packet page 0 read → first packet     cut, queue, pace, UDP, receive
//	seek                Seek sent → first packet at/after the target
//	  seek.rpc          Seek sent → ack
//	  seek.first_packet ack → that packet
//	record.stop         Stop sent → recording listed
//	  record.commit     Stop acked → recording listed
//
// Tracing inside the program is a later issue (ROADMAP item 2).
type span struct {
	Name     string        `json:"name"`
	ID       uint64        `json:"id,omitempty"`
	Parent   string        `json:"parent,omitempty"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Title    uint32        `json:"title,omitempty"`
	HasTitle bool          `json:"-"`
	Page     int64         `json:"page,omitempty"`
	Bytes    int64         `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans; the zero of the run's clock is the receiver's
// epoch, so spans and packet arrivals share a timeline.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a span. A child that finished before its parent's
// previous child did (a first packet that beat the ack home) is kept at
// zero length rather than negative.
func (t *tracer) add(s span) {
	if s.End < s.Start {
		s.End = s.Start
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addPlays derives the per-request spans from what the harness and the
// receiver recorded, and adopts the device's disk.read spans: on a cold
// workload a title has one play, so a read of that title is that
// play's.
func (t *tracer) addPlays(plays []*play, firstRead map[uint32]time.Duration) {
	byTitle := make(map[uint32][]*play)
	for _, p := range plays {
		if p.err == nil && p.flow != nil && len(p.flow.recs) > 0 {
			byTitle[p.t.id] = append(byTitle[p.t.id], p)
		}
	}
	t.mu.Lock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "disk.read" || !s.HasTitle || len(byTitle[s.Title]) != 1 {
			continue
		}
		p := byTitle[s.Title][0]
		s.ID = p.stream
		s.Parent = "play"
		if s.Page == 0 && s.End <= p.flow.recs[0].at {
			s.Parent = "play.first_page"
		}
	}
	t.mu.Unlock()
	for _, ps := range byTitle {
		for _, p := range ps {
			first := p.flow.recs[0].at
			t.add(span{Name: "play", ID: p.stream, Start: p.due, End: first, Title: p.t.id})
			t.add(span{Name: "play.rpc", ID: p.stream, Parent: "play", Start: p.sent, End: p.admitted})
			paged := p.admitted
			if at, ok := firstRead[p.t.id]; ok && len(ps) == 1 && at <= first {
				if at > paged {
					paged = at
				}
				t.add(span{Name: "play.first_page", ID: p.stream, Parent: "play", Start: p.admitted, End: paged})
			}
			t.add(span{Name: "play.first_packet", ID: p.stream, Parent: "play", Start: paged, End: first})
			if p.seekSent > 0 && p.seekHit > 0 {
				t.add(span{Name: "seek", ID: p.stream, Start: p.seekSent, End: p.seekHit, Title: p.t.id})
				t.add(span{Name: "seek.rpc", ID: p.stream, Parent: "seek", Start: p.seekSent, End: p.seekAcked})
				t.add(span{Name: "seek.first_packet", ID: p.stream, Parent: "seek", Start: p.seekAcked, End: p.seekHit})
			}
		}
	}
}

// spanSummary is what the trace says about one span name.
type spanSummary struct {
	N      int     `json:"n"`
	P50ms  float64 `json:"p50_ms"`
	TailMs float64 `json:"tail_ms"`
	Tail   string  `json:"tail"`
	// SelfP50ms is the median of the span minus the part of it its
	// child spans cover.
	SelfP50ms float64 `json:"self_p50_ms"`
}

// summarise computes durations and self times per span name, and how
// much of each root span its children explain.
func (t *tracer) summarise() (byName map[string]spanSummary, coverage map[string]float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	type key struct {
		id     uint64
		parent string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" && s.ID != 0 {
			children[key{s.ID, s.Parent}] = append(children[key{s.ID, s.Parent}], s)
		}
	}
	durs := make(map[string]sample)
	selfs := make(map[string]sample)
	cover := make(map[string]sample)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		covered := coveredBy(s, children[key{s.ID, s.Name}])
		selfs[s.Name] = append(selfs[s.Name], ms(s.dur()-covered))
		if s.Parent == "" && s.ID != 0 && s.dur() > 0 {
			cover[s.Name] = append(cover[s.Name], pct(float64(covered), float64(s.dur())))
		}
	}
	byName = make(map[string]spanSummary)
	for name, d := range durs {
		sorted := d.sorted()
		tn, tv := tail(sorted)
		byName[name] = spanSummary{
			N: len(d), P50ms: quantile(sorted, 0.5), Tail: tn, TailMs: tv,
			SelfP50ms: median(selfs[name]),
		}
	}
	coverage = make(map[string]float64)
	for name, c := range cover {
		coverage[name] = median(c)
	}
	return byName, coverage
}

// coveredBy is the length of the part of s its children cover (their
// union, clipped to s).
func coveredBy(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered time.Duration
	at := s.Start
	for _, k := range kids {
		from, to := k.Start, k.End
		if from < at {
			from = at
		}
		if to > s.End {
			to = s.End
		}
		if to > from {
			covered += to - from
			at = to
		}
	}
	return covered
}

// write puts the spans and their summary in path.
func (t *tracer) write(path string, workload string, seed int64) error {
	byName, coverage := t.summarise()
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	out := struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Summary  map[string]spanSummary `json:"summary"`
		Coverage map[string]float64     `json:"coverage_pct"`
		Spans    []span                 `json:"spans"`
	}{workload, seed, byName, coverage, spans}
	raw, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("bench: encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: trace directory: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	return nil
}
