package obs

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatalf("nil counter Load = %d, want 0", c.Load())
	}
	var g *Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 0 {
		t.Fatalf("nil gauge Load = %d, want 0", g.Load())
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	if h.Count() != 0 {
		t.Fatalf("nil histogram Count = %d, want 0", h.Count())
	}
	var r *Ring
	if seq := r.Append(Event{Kind: EvAdmit}); seq != 0 {
		t.Fatalf("nil ring Append = %d, want 0", seq)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := New(Options{})
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("re-registering a counter returned a different handle")
	}
	a.Add(2)
	b.Inc()
	if got := r.Snapshot().Counter("x"); got != 3 {
		t.Fatalf("counter x = %d, want 3", got)
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) bucket
// semantics: a value exactly on a bound lands in that bound's bucket,
// one nanosecond above lands in the next, negatives clamp to zero, and
// anything past the last bound lands in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond}
	r := New(Options{})
	h := r.Histogram("lat", bounds)

	h.Observe(time.Millisecond)       // exactly bound 0 → bucket 0
	h.Observe(time.Millisecond + 1)   // just above → bucket 1
	h.Observe(-time.Second)           // clamps to 0 → bucket 0
	h.Observe(10 * time.Millisecond)  // exactly bound 1 → bucket 1
	h.Observe(100 * time.Millisecond) // exactly bound 2 → bucket 2
	h.Observe(101 * time.Millisecond) // past last bound → +Inf
	h.Observe(time.Hour)              // far past → +Inf

	hs := r.Snapshot().Hists["lat"]
	want := []int64{2, 2, 1, 2}
	if len(hs.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(hs.Counts), len(want))
	}
	for i, n := range want {
		if hs.Counts[i] != n {
			t.Fatalf("bucket[%d] = %d, want %d (all: %v)", i, hs.Counts[i], n, hs.Counts)
		}
	}
	if hs.Count != 7 {
		t.Fatalf("count = %d, want 7", hs.Count)
	}
	if hs.Bounds[0] != 0.001 || hs.Bounds[2] != 0.1 {
		t.Fatalf("bounds in seconds = %v", hs.Bounds)
	}
}

// TestSnapshotSubAddRoundTrip is the merge property test: for random
// registry states a and b where a happened-after b (counters only grew),
// b.Add(a.Sub(b)) must reproduce a's counters and histogram buckets
// exactly.
func TestSnapshotSubAddRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"alpha", "beta", "gamma", "delta"}
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond}

	for trial := 0; trial < 100; trial++ {
		reg := New(Options{})
		for _, n := range names {
			reg.Counter(n).Add(rng.Int63n(1000))
		}
		h := reg.Histogram("lat", bounds)
		for i := 0; i < 20; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(20 * time.Millisecond))))
		}
		before := reg.Snapshot()

		for _, n := range names {
			reg.Counter(n).Add(rng.Int63n(1000))
		}
		for i := 0; i < 20; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(20 * time.Millisecond))))
		}
		reg.Gauge("active").Set(rng.Int63n(50))
		after := reg.Snapshot()

		rebuilt := before.Add(after.Sub(before))
		for _, n := range names {
			if rebuilt.Counter(n) != after.Counter(n) {
				t.Fatalf("trial %d: counter %s = %d after round trip, want %d", trial, n, rebuilt.Counter(n), after.Counter(n))
			}
		}
		ra, aa := rebuilt.Hists["lat"], after.Hists["lat"]
		for i := range aa.Counts {
			if ra.Counts[i] != aa.Counts[i] {
				t.Fatalf("trial %d: hist bucket %d = %d, want %d", trial, i, ra.Counts[i], aa.Counts[i])
			}
		}
		if ra.Count != aa.Count {
			t.Fatalf("trial %d: hist count = %d, want %d", trial, ra.Count, aa.Count)
		}
		if rebuilt.Gauge("active") != after.Gauge("active") {
			t.Fatalf("trial %d: gauge = %d, want %d", trial, rebuilt.Gauge("active"), after.Gauge("active"))
		}
	}
}

// TestSnapshotSubRestart pins the restart rule: when a counter went
// backwards (the peer process restarted and its counters reset), Sub
// reports the full current value rather than a negative delta.
func TestSnapshotSubRestart(t *testing.T) {
	prev := Snapshot{Counters: map[string]int64{"x": 100}}
	cur := Snapshot{Counters: map[string]int64{"x": 7}}
	if d := cur.Sub(prev).Counter("x"); d != 7 {
		t.Fatalf("restart delta = %d, want 7", d)
	}
}

func TestRegistryMerge(t *testing.T) {
	coord := New(Options{})
	coord.Counter("msu_packets_sent_total").Add(10)

	// Two MSUs ship deltas; totals add.
	coord.Merge(Snapshot{Counters: map[string]int64{"msu_packets_sent_total": 5}})
	coord.Merge(Snapshot{Counters: map[string]int64{"msu_packets_sent_total": 3}})
	// Negative deltas (should not happen with Sub's restart rule, but
	// defend anyway) are clamped.
	coord.Merge(Snapshot{Counters: map[string]int64{"msu_packets_sent_total": -100}})
	if got := coord.Snapshot().Counter("msu_packets_sent_total"); got != 18 {
		t.Fatalf("merged counter = %d, want 18", got)
	}

	// Histogram deltas with matching bounds merge bucket-wise.
	hs := HistSnapshot{Bounds: []float64{0.001}, Counts: []int64{2, 1}, Sum: 0.004, Count: 3}
	coord.Merge(Snapshot{Hists: map[string]HistSnapshot{"lat": hs}})
	coord.Merge(Snapshot{Hists: map[string]HistSnapshot{"lat": hs}})
	got := coord.Snapshot().Hists["lat"]
	if got.Count != 6 || got.Counts[0] != 4 || got.Counts[1] != 2 {
		t.Fatalf("merged hist = %+v", got)
	}
}

// TestWritePrometheusGolden pins the exposition text of a registry's
// snapshot. The runtime's figures are the test process's own, so their
// values are masked (N); their names, types and edges are pinned.
func TestWritePrometheusGolden(t *testing.T) {
	r := New(Options{})
	r.Counter("admission_admitted_total").Add(5)
	r.Counter("requests_total").Add(12)
	r.Gauge("active_streams").Set(3)
	h := r.Histogram("queue_wait", []time.Duration{time.Millisecond, time.Second})
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Second)

	var b strings.Builder
	if err := WritePrometheus(&b, "calliope", r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(b.String(), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "calliope_runtime_") {
			lines[i] = l[:strings.LastIndexByte(l, ' ')] + " N\n"
		}
	}
	got := strings.Join(lines, "")
	want := `# TYPE calliope_admission_admitted_total counter
calliope_admission_admitted_total 5
# TYPE calliope_requests_total counter
calliope_requests_total 12
# TYPE calliope_runtime_heap_alloc_bytes_total counter
calliope_runtime_heap_alloc_bytes_total N
# TYPE calliope_active_streams gauge
calliope_active_streams 3
# TYPE calliope_runtime_goroutines gauge
calliope_runtime_goroutines N
# TYPE calliope_queue_wait histogram
calliope_queue_wait_bucket{le="0.001"} 1
calliope_queue_wait_bucket{le="1"} 2
calliope_queue_wait_bucket{le="+Inf"} 3
calliope_queue_wait_sum 2.0025
calliope_queue_wait_count 3
# TYPE calliope_runtime_gc_pause_seconds histogram
calliope_runtime_gc_pause_seconds_bucket{le="0.000001"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.00001"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.0001"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.0005"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.001"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.005"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.01"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.02"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.05"} N
calliope_runtime_gc_pause_seconds_bucket{le="0.1"} N
calliope_runtime_gc_pause_seconds_bucket{le="1"} N
calliope_runtime_gc_pause_seconds_bucket{le="+Inf"} N
calliope_runtime_gc_pause_seconds_sum N
calliope_runtime_gc_pause_seconds_count N
# TYPE calliope_runtime_sched_latency_seconds histogram
calliope_runtime_sched_latency_seconds_bucket{le="0.000001"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.00001"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.0001"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.0005"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.001"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.005"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.01"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.02"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.05"} N
calliope_runtime_sched_latency_seconds_bucket{le="0.1"} N
calliope_runtime_sched_latency_seconds_bucket{le="1"} N
calliope_runtime_sched_latency_seconds_bucket{le="+Inf"} N
calliope_runtime_sched_latency_seconds_sum N
calliope_runtime_sched_latency_seconds_count N
`
	if got != want {
		t.Fatalf("prometheus output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRuntimeFigures: every snapshot carries the Go runtime's scheduler
// latencies and GC pauses as histograms on RuntimeBuckets, its heap
// allocation as a counter and its goroutines as a gauge, and across two
// snapshots none of the cumulative ones goes back.
func TestRuntimeFigures(t *testing.T) {
	r := New(Options{})
	a := r.Snapshot()
	sink = make([]byte, 1<<20)
	runtime.GC()
	b := r.Snapshot()
	for _, s := range []Snapshot{a, b} {
		if _, ok := s.Counters[RuntimeHeapAllocs]; !ok {
			t.Fatalf("no %s in %v", RuntimeHeapAllocs, s.Counters)
		}
		if n := s.Gauges[RuntimeGoroutines]; n < 1 {
			t.Errorf("%s = %d", RuntimeGoroutines, n)
		}
		for _, name := range []string{RuntimeSchedLatency, RuntimeGCPauses} {
			if h, ok := s.Hists[name]; !ok || len(h.Counts) != len(RuntimeBuckets)+1 {
				t.Fatalf("%s: %+v (present %v), want %d buckets", name, h, ok, len(RuntimeBuckets)+1)
			}
		}
	}
	if b.Counter(RuntimeHeapAllocs) < a.Counter(RuntimeHeapAllocs)+1<<20 {
		t.Errorf("%s went %d → %d across a 1 MB allocation", RuntimeHeapAllocs, a.Counter(RuntimeHeapAllocs), b.Counter(RuntimeHeapAllocs))
	}
	for _, name := range []string{RuntimeSchedLatency, RuntimeGCPauses} {
		ha, hb := a.Hists[name], b.Hists[name]
		for i := range ha.Counts {
			if hb.Counts[i] < ha.Counts[i] {
				t.Errorf("%s bucket %d went %d → %d", name, i, ha.Counts[i], hb.Counts[i])
			}
		}
		if hb.Count < ha.Count || hb.Sum < ha.Sum {
			t.Errorf("%s went from %d observations (sum %g) to %d (%g)", name, ha.Count, ha.Sum, hb.Count, hb.Sum)
		}
	}
	if b.Hists[RuntimeGCPauses].Count <= a.Hists[RuntimeGCPauses].Count {
		t.Errorf("a GC between the snapshots added no pause to %s", RuntimeGCPauses)
	}
}

// sink keeps TestRuntimeFigures' allocation on the heap.
var sink []byte

func TestMetricNameSanitized(t *testing.T) {
	if got := metricName("calliope", "cache hit-ratio.d0"); got != "calliope_cache_hit_ratio_d0" {
		t.Fatalf("metricName = %q", got)
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Add returns the merge s + o: counters and histogram buckets add;
// gauges keep s's value where both define one (o fills the gaps).
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := s.Clone()
	if out.Counters == nil {
		out.Counters = make(map[string]int64, len(o.Counters))
	}
	if out.Gauges == nil {
		out.Gauges = make(map[string]int64, len(o.Gauges))
	}
	if out.Hists == nil {
		out.Hists = make(map[string]HistSnapshot, len(o.Hists))
	}
	for name, v := range o.Counters {
		out.Counters[name] += v
	}
	for name, v := range o.Gauges {
		if _, ok := out.Gauges[name]; !ok {
			out.Gauges[name] = v
		}
	}
	for name, h := range o.Hists {
		out.Hists[name] = out.Hists[name].add(h)
	}
	return out
}

// add is Add's merge of one histogram.
func (h HistSnapshot) add(o HistSnapshot) HistSnapshot {
	if len(h.Counts) == 0 {
		return o.clone()
	}
	out := h.clone()
	if len(o.Counts) == len(h.Counts) && equalBounds(o.Bounds, h.Bounds) {
		for i := range out.Counts {
			out.Counts[i] += o.Counts[i]
		}
	} else if len(o.Counts) > 0 {
		// Layout mismatch: fold the other side into +Inf.
		var total int64
		for _, n := range o.Counts {
			total += n
		}
		out.Counts[len(out.Counts)-1] += total
	}
	out.Sum += o.Sum
	out.Count += o.Count
	return out
}
