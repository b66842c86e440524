package obs

// A Snapshot is the flattened, mergeable form of a Registry: plain
// maps of instrument name → value, JSON-serializable so it travels in
// wire messages (StatusV2, cache-report piggybacks). It follows the
// trace stats idiom: Sub produces the delta since an earlier snapshot
// (gauges keep the later value), Add merges two snapshots (counters
// and histogram buckets add, gauges keep the receiver's value when
// both are set).
type Snapshot struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// A HistSnapshot is one histogram's flattened state. Bounds are upper
// bucket boundaries in seconds; Counts has one extra trailing entry
// for the implicit +Inf bucket. Sum is in seconds.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Empty reports whether the snapshot carries no values at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Hists) == 0
}

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{}
	if s.Counters != nil {
		out.Counters = make(map[string]int64, len(s.Counters))
		for k, v := range s.Counters {
			out.Counters[k] = v
		}
	}
	if s.Gauges != nil {
		out.Gauges = make(map[string]int64, len(s.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] = v
		}
	}
	if s.Hists != nil {
		out.Hists = make(map[string]HistSnapshot, len(s.Hists))
		for k, v := range s.Hists {
			out.Hists[k] = v.clone()
		}
	}
	return out
}

func (h HistSnapshot) clone() HistSnapshot {
	out := HistSnapshot{Sum: h.Sum, Count: h.Count}
	out.Bounds = append([]float64(nil), h.Bounds...)
	out.Counts = append([]int64(nil), h.Counts...)
	return out
}

// Sub returns the delta s − prev: counters and histogram buckets
// subtract, gauges keep s's (the later) value. A counter that went
// backwards (the peer restarted) reports its full current value, not a
// negative delta, so re-merging stays monotone.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]int64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for name, v := range s.Counters {
		d := v - prev.Counters[name]
		if d < 0 {
			d = v
		}
		if d != 0 {
			out.Counters[name] = d
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Hists {
		out.Hists[name] = h.sub(prev.Hists[name])
	}
	return out
}

func (h HistSnapshot) sub(prev HistSnapshot) HistSnapshot {
	out := h.clone()
	if len(prev.Counts) != len(h.Counts) || !equalBounds(prev.Bounds, h.Bounds) {
		return out // layout changed: report the full current state
	}
	for i := range out.Counts {
		out.Counts[i] -= prev.Counts[i]
		if out.Counts[i] < 0 {
			out.Counts[i] = h.Counts[i]
		}
	}
	out.Sum -= prev.Sum
	if out.Sum < 0 {
		out.Sum = h.Sum
	}
	out.Count -= prev.Count
	if out.Count < 0 {
		out.Count = h.Count
	}
	return out
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
