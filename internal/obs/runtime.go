package obs

import (
	"math"
	"runtime/metrics"
	"time"
)

// The Go runtime's own figures, read from runtime/metrics into every
// Snapshot a registry takes — no goroutine samples them, and nothing needs
// switching on. They describe the process that took the snapshot: they
// overwrite whatever a Merge put under their names, and a Portable
// snapshot, shipped to be merged elsewhere, leaves them out.
const (
	// RuntimeSchedLatency is how long goroutines waited runnable before
	// they ran (/sched/latencies:seconds).
	RuntimeSchedLatency = "runtime_sched_latency_seconds"
	// RuntimeGCPauses is the collector's stop-the-world pauses
	// (/gc/pauses:seconds).
	RuntimeGCPauses = "runtime_gc_pause_seconds"
	// RuntimeHeapAllocs is the bytes allocated on the heap since the
	// process started (/gc/heap/allocs:bytes).
	RuntimeHeapAllocs = "runtime_heap_alloc_bytes_total"
	// RuntimeGoroutines is the goroutines alive (/sched/goroutines:goroutines).
	RuntimeGoroutines = "runtime_goroutines"
)

// RuntimeBuckets are the runtime histograms' edges: a scheduler wait is
// microseconds when the process keeps up, and a stall that makes packets
// late is tens of milliseconds.
var RuntimeBuckets = []time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

func newRuntimeSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/pauses:seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
}

// readRuntime reads samples (the registry's, under its lock) into s.
func readRuntime(samples []metrics.Sample, s *Snapshot) {
	metrics.Read(samples)
	for i, name := range []string{RuntimeSchedLatency, RuntimeGCPauses, RuntimeHeapAllocs, RuntimeGoroutines} {
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindFloat64Histogram:
			s.Hists[name] = runtimeHist(v.Float64Histogram())
		case metrics.KindUint64:
			if name == RuntimeGoroutines {
				s.Gauges[name] = int64(v.Uint64())
			} else {
				s.Counters[name] = int64(v.Uint64())
			}
		}
	}
}

// runtimeHist folds a runtime histogram into RuntimeBuckets: each of its
// buckets counts under the first edge at or above its upper end, so an
// observation is never counted below what it was. The runtime keeps no
// sum; Sum counts each observation at its bucket's lower end.
func runtimeHist(h *metrics.Float64Histogram) HistSnapshot {
	hs := HistSnapshot{Bounds: make([]float64, len(RuntimeBuckets)), Counts: make([]int64, len(RuntimeBuckets)+1)}
	for i, b := range RuntimeBuckets {
		hs.Bounds[i] = b.Seconds()
	}
	j := 0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		for j < len(hs.Bounds) && h.Buckets[i+1] > hs.Bounds[j] {
			j++
		}
		hs.Counts[j] += int64(n)
		hs.Count += int64(n)
		if lo := h.Buckets[i]; lo > 0 && !math.IsInf(lo, 1) {
			hs.Sum += lo * float64(n)
		}
	}
	return hs
}
