// Package obs is Calliope's observability subsystem: a walltime-
// injectable metrics registry (counters, gauges, fixed-bucket latency
// histograms) and a bounded per-stream event ring (events.go).
//
// Two properties drive the design (DESIGN.md §3i):
//
//   - Mergeable snapshots. Every instrument flattens into a Snapshot —
//     plain maps of name → value — with Sub (delta since a previous
//     snapshot) and Add (merge) following the trace.CacheStats idiom.
//     MSUs ship their cumulative Snapshot piggybacked on cache-report
//     notifications and the Coordinator diffs + folds them into its own
//     registry, so cluster-wide totals survive lost notifications and
//     MSU restarts without a separate metrics channel.
//
//   - Nil-safe atomic handles. Hot paths (the per-packet delivery loop)
//     hold pre-registered *Counter / *Histogram pointers and update a
//     single atomic — no map lookups, no interface boxing, no locks.
//     All instrument methods are no-ops on a nil receiver, so a
//     zero-value host skips instrumentation.
//
// The package is in the walltime analyzer's DeterministicPkgs list: it
// never calls time.Now itself; callers inject a clock (the Coordinator
// passes its Config.Now so simulated-time tests get simulated stamps).
package obs

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Registry.
type Options struct {
	// Now stamps events appended to the registry's ring. Defaults to
	// time.Now (a value reference; deterministic tests inject their
	// simulated clock instead).
	Now func() time.Time
}

// DefaultEventCap is the registry's event-ring bound: large enough to
// hold a full play→migrate→EOF lifecycle for every admissible stream on
// a big MSU, small enough to be a fixed cost.
const DefaultEventCap = 4096

// Registry owns a set of named instruments and an event ring.
// Registration takes a lock; the returned handles update lock-free.
type Registry struct {
	now  func() time.Time
	ring *Ring

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	runtime  []metrics.Sample // the Go runtime's figures (runtime.go)
}

// New builds an empty registry.
func New(opts Options) *Registry {
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Registry{
		now:      now,
		ring:     NewRing(DefaultEventCap, now),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		runtime:  newRuntimeSamples(),
	}
}

// Events returns the registry's event ring.
func (r *Registry) Events() *Ring { return r.ring }

// Counter registers (or fetches) the named monotonic counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers (or fetches) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram registers (or fetches) the named fixed-bucket histogram.
// Bounds are upper bucket boundaries in ascending order; an implicit
// +Inf bucket is appended. Re-registering an existing name returns the
// existing histogram (its bounds win).
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens every instrument into a mergeable value, and the Go
// runtime's figures beside them (runtime.go).
func (r *Registry) Snapshot() Snapshot {
	s := r.Portable()
	r.mu.Lock()
	defer r.mu.Unlock()
	readRuntime(r.runtime, &s)
	return s
}

// Portable is Snapshot without the runtime's figures, which describe only
// the process that takes it: what a registry ships for another to merge
// (an MSU's cache reports).
func (r *Registry) Portable() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]int64, len(r.gauges)),
		Hists:    make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Hists[name] = h.snapshot()
	}
	return s
}

// Merge folds a delta Snapshot (typically another node's Sub output)
// into this registry: counters and histogram buckets add, gauges take
// the delta's value. Negative counter deltas are clamped to zero so a
// peer restart (counters reset) cannot drive cluster totals backwards.
func (r *Registry) Merge(delta Snapshot) {
	names := make([]string, 0, len(delta.Counters))
	for name := range delta.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := delta.Counters[name]; v > 0 {
			r.Counter(name).Add(v)
		}
	}
	for name, v := range delta.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range delta.Hists {
		bounds := make([]time.Duration, len(hs.Bounds))
		for i, b := range hs.Bounds {
			bounds[i] = time.Duration(b * float64(time.Second))
		}
		r.Histogram(name, bounds).merge(hs)
	}
}

// A Counter is a monotonically increasing atomic. All methods are
// no-ops on a nil receiver so zero-value hosts skip instrumentation.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative; counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an instantaneous atomic value. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets suit packet lateness and queue-wait times: the
// paper's §4 lateness measurements cluster under 10ms on an unloaded
// server and degrade toward hundreds of ms at saturation.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	5 * time.Second,
}

// A Histogram counts durations into fixed buckets. Observe is a single
// bounded scan plus two atomic adds — no allocation, no lock — and is
// a no-op on a nil receiver, so it is safe on the per-packet path.
type Histogram struct {
	bounds  []int64 // upper bounds, nanoseconds, ascending
	buckets []atomic.Int64
	sum     atomic.Int64 // nanoseconds
	count   atomic.Int64
}

func newHistogram(bounds []time.Duration) *Histogram {
	h := &Histogram{
		bounds:  make([]int64, len(bounds)),
		buckets: make([]atomic.Int64, len(bounds)+1), // +Inf bucket last
	}
	for i, b := range bounds {
		h.bounds[i] = int64(b)
	}
	return h
}

// Observe records one duration. Negative observations clamp to zero
// (a packet sent ahead of its pacing target is simply "not late").
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	n := int64(d)
	if n < 0 {
		n = 0
	}
	i := 0
	for i < len(h.bounds) && n > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(n)
	h.count.Add(1)
}

func (h *Histogram) snapshot() HistSnapshot {
	hs := HistSnapshot{
		Bounds: make([]float64, len(h.bounds)),
		Counts: make([]int64, len(h.buckets)),
	}
	for i, b := range h.bounds {
		hs.Bounds[i] = float64(b) / float64(time.Second)
	}
	for i := range h.buckets {
		hs.Counts[i] = h.buckets[i].Load()
	}
	hs.Sum = float64(h.sum.Load()) / float64(time.Second)
	hs.Count = h.count.Load()
	return hs
}

// merge folds a delta snapshot into the live histogram. Bucket layouts
// that disagree fold into the +Inf bucket so no observation is lost.
func (h *Histogram) merge(hs HistSnapshot) {
	if len(hs.Counts) == len(h.buckets) {
		for i, n := range hs.Counts {
			if n > 0 {
				h.buckets[i].Add(n)
			}
		}
	} else {
		var total int64
		for _, n := range hs.Counts {
			if n > 0 {
				total += n
			}
		}
		h.buckets[len(h.buckets)-1].Add(total)
	}
	if hs.Sum > 0 {
		h.sum.Add(int64(hs.Sum * float64(time.Second)))
	}
	if hs.Count > 0 {
		h.count.Add(hs.Count)
	}
}
