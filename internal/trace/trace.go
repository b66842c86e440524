// Package trace records packet delivery traces and computes the
// cumulative lateness distributions the paper's Graphs 1 and 2 plot:
// "the percent of packets delivered within a given number of
// milliseconds of their deadline", in one-millisecond bins.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Recorder accumulates per-packet lateness observations.
type Recorder struct {
	lateness []time.Duration
	// sorted caches an ascending copy of lateness for Percentile, so
	// repeated percentile reads over a settled trace sort once instead
	// of copying and re-sorting millions of samples per call. Record
	// invalidates it; the slice's capacity is kept across rebuilds.
	sorted      []time.Duration
	sortedValid bool
}

// Record notes one packet delivered at actual against its deadline.
// Early deliveries count as zero lateness (the client buffers them).
func (r *Recorder) Record(deadline, actual time.Duration) {
	late := actual - deadline
	if late < 0 {
		late = 0
	}
	r.lateness = append(r.lateness, late)
	r.sortedValid = false
}

// Count reports the number of recorded packets.
func (r *Recorder) Count() int { return len(r.lateness) } //nolint:testonly // paper reproduction: Graphs 1 and 2 (root benchmarks), until ROADMAP item 12

// PercentWithin reports the percentage of packets delivered no more
// than d after their deadline.
func (r *Recorder) PercentWithin(d time.Duration) float64 {
	if len(r.lateness) == 0 {
		return 0
	}
	sorted := r.sortedLateness()
	n := sort.Search(len(sorted), func(i int) bool { return sorted[i] > d })
	return 100 * float64(n) / float64(len(sorted))
}

// MaxLateness reports the worst observed lateness.
func (r *Recorder) MaxLateness() time.Duration {
	if len(r.lateness) == 0 {
		return 0
	}
	sorted := r.sortedLateness()
	return sorted[len(sorted)-1]
}

// Percentile reports the p-th percentile lateness (0 < p ≤ 100).
func (r *Recorder) Percentile(p float64) time.Duration { //nolint:testonly // paper reproduction: Graphs 1 and 2 (root benchmarks), until ROADMAP item 12
	if len(r.lateness) == 0 || p <= 0 {
		return 0
	}
	sorted := r.sortedLateness()
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedLateness returns the cached ascending lateness slice,
// rebuilding it if a Record landed since the last sort.
func (r *Recorder) sortedLateness() []time.Duration {
	if !r.sortedValid {
		r.sorted = append(r.sorted[:0], r.lateness...)
		sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i] < r.sorted[j] })
		r.sortedValid = true
	}
	return r.sorted
}

// CDF returns the cumulative percentage of packets per one-millisecond
// lateness bin, from 0 to maxMs inclusive — the Y values of the
// paper's graphs. Index i holds the percentage delivered within i ms.
func (r *Recorder) CDF(maxMs int) []float64 {
	out := make([]float64, maxMs+1)
	if len(r.lateness) == 0 {
		return out
	}
	counts := make([]int, maxMs+1)
	for _, l := range r.lateness {
		if ms := int(l / time.Millisecond); ms <= maxMs {
			counts[ms]++
		}
	}
	cum := 0
	total := float64(len(r.lateness))
	for i := 0; i <= maxMs; i++ {
		cum += counts[i]
		out[i] = 100 * float64(cum) / total
	}
	return out
}

// Series is one labelled CDF curve, e.g. "22 1.5 Mbit/s streams".
type Series struct {
	Label    string
	Recorder *Recorder
}

// FormatGraph renders curves the way the paper's graphs tabulate them:
// rows of cumulative percentages at selected lateness thresholds.
func FormatGraph(title string, series []Series, thresholds []time.Duration) string { //nolint:testonly // paper reproduction: Graphs 1 and 2 (root benchmarks), until ROADMAP item 12
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s", "milliseconds late ≤")
	for _, th := range thresholds {
		fmt.Fprintf(&b, "%8d", th/time.Millisecond)
	}
	fmt.Fprintf(&b, "%10s\n", "max(ms)")
	for _, s := range series {
		fmt.Fprintf(&b, "%-28s", s.Label)
		for _, th := range thresholds {
			fmt.Fprintf(&b, "%8.1f", s.Recorder.PercentWithin(th))
		}
		fmt.Fprintf(&b, "%10d\n", s.Recorder.MaxLateness()/time.Millisecond)
	}
	return b.String()
}

// RenderASCII draws the cumulative distributions as a text plot in the
// spirit of the paper's graphs: X is milliseconds late (0..maxMs), Y is
// cumulative percent of packets. Each series gets a distinct marker.
func RenderASCII(series []Series, maxMs, width, height int) string { //nolint:testonly // paper reproduction: Graphs 1 and 2 (root benchmarks), until ROADMAP item 12
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	if maxMs < 1 {
		maxMs = 1
	}
	markers := []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}
	grid := make([][]byte, height)
	for y := range grid {
		grid[y] = make([]byte, width)
		for x := range grid[y] {
			grid[y][x] = ' '
		}
	}
	for si, s := range series {
		cdf := s.Recorder.CDF(maxMs)
		m := markers[si%len(markers)]
		for x := 0; x < width; x++ {
			ms := x * maxMs / (width - 1)
			if ms > maxMs {
				ms = maxMs
			}
			pct := cdf[ms]
			y := height - 1 - int(pct/100*float64(height-1)+0.5)
			if y < 0 {
				y = 0
			}
			if y >= height {
				y = height - 1
			}
			grid[y][x] = m
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%% of packets delivered within N ms of deadline\n")
	for y := 0; y < height; y++ {
		pct := 100 * (height - 1 - y) / (height - 1)
		fmt.Fprintf(&b, "%3d%% |%s|\n", pct, string(grid[y]))
	}
	fmt.Fprintf(&b, "     +%s+\n", strings.Repeat("-", width))
	fmt.Fprintf(&b, "      0 ms%*s\n", width-4, fmt.Sprintf("%d ms", maxMs))
	for si, s := range series {
		fmt.Fprintf(&b, "      %c = %s\n", markers[si%len(markers)], s.Label)
	}
	return b.String()
}
