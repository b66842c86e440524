package trace

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRecordAndPercentWithin(t *testing.T) {
	var r Recorder
	r.Record(100*time.Millisecond, 100*time.Millisecond) // on time
	r.Record(100*time.Millisecond, 90*time.Millisecond)  // early → 0
	r.Record(100*time.Millisecond, 130*time.Millisecond) // 30ms late
	r.Record(100*time.Millisecond, 300*time.Millisecond) // 200ms late
	if r.Count() != 4 {
		t.Fatalf("Count = %d", r.Count())
	}
	if got := r.PercentWithin(0); got != 50 {
		t.Errorf("PercentWithin(0) = %v, want 50", got)
	}
	if got := r.PercentWithin(50 * time.Millisecond); got != 75 {
		t.Errorf("PercentWithin(50ms) = %v, want 75", got)
	}
	if got := r.PercentWithin(time.Second); got != 100 {
		t.Errorf("PercentWithin(1s) = %v, want 100", got)
	}
	if got := r.MaxLateness(); got != 200*time.Millisecond {
		t.Errorf("MaxLateness = %v", got)
	}
}

func TestEmptyRecorder(t *testing.T) {
	var r Recorder
	if r.PercentWithin(time.Second) != 0 || r.MaxLateness() != 0 || r.Percentile(99) != 0 {
		t.Error("empty recorder should report zeros")
	}
	cdf := r.CDF(10)
	if len(cdf) != 11 {
		t.Fatalf("CDF len = %d", len(cdf))
	}
	for _, v := range cdf {
		if v != 0 {
			t.Fatal("empty CDF should be zero")
		}
	}
}

func TestCDFBinning(t *testing.T) {
	var r Recorder
	// Lateness: 0, 1ms, 1.4ms, 5ms, 500ms (beyond max).
	for _, late := range []time.Duration{0, time.Millisecond, 1400 * time.Microsecond, 5 * time.Millisecond, 500 * time.Millisecond} {
		r.Record(0, late)
	}
	cdf := r.CDF(10)
	if cdf[0] != 20 {
		t.Errorf("cdf[0] = %v, want 20", cdf[0])
	}
	if cdf[1] != 60 {
		t.Errorf("cdf[1] = %v, want 60 (two packets in the 1ms bin)", cdf[1])
	}
	if cdf[5] != 80 {
		t.Errorf("cdf[5] = %v, want 80", cdf[5])
	}
	if cdf[10] != 80 {
		t.Errorf("cdf[10] = %v — packet beyond max must not be counted", cdf[10])
	}
}

func TestPercentile(t *testing.T) {
	var r Recorder
	for i := 1; i <= 100; i++ {
		r.Record(0, time.Duration(i)*time.Millisecond)
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("P50 = %v", got)
	}
	if got := r.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("P99 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("P100 = %v", got)
	}
}

// TestPercentileCacheInvalidation checks the sorted-slice cache: reads
// repeat stably, a Record after a read invalidates the cache, and
// out-of-order samples still sort correctly on the rebuild.
func TestPercentileCacheInvalidation(t *testing.T) {
	var r Recorder
	for _, ms := range []int{40, 10, 30, 20} {
		r.Record(0, time.Duration(ms)*time.Millisecond)
	}
	if got := r.Percentile(50); got != 20*time.Millisecond {
		t.Fatalf("P50 = %v, want 20ms", got)
	}
	if got := r.Percentile(50); got != 20*time.Millisecond {
		t.Fatalf("cached P50 = %v, want 20ms", got)
	}
	if got := r.Percentile(100); got != 40*time.Millisecond {
		t.Fatalf("P100 = %v, want 40ms", got)
	}
	// A new sample below the old median must shift the percentile: the
	// cache may not serve the stale sort.
	r.Record(0, 5*time.Millisecond)
	if got := r.Percentile(100); got != 40*time.Millisecond {
		t.Fatalf("P100 after Record = %v, want 40ms", got)
	}
	if got := r.Percentile(20); got != 5*time.Millisecond {
		t.Fatalf("P20 after Record = %v, want 5ms", got)
	}
	// Recording must not disturb what earlier reads returned (the cache
	// is a copy, not an alias of the live slice).
	for i := 0; i < 200; i++ {
		r.Record(0, time.Duration(i)*time.Millisecond)
	}
	if got := r.Percentile(100); got != 199*time.Millisecond {
		t.Fatalf("P100 after growth = %v, want 199ms", got)
	}
}

// TestPercentWithinCacheInvalidation: PercentWithin and MaxLateness
// ride the sorted cache; a Record between reads must invalidate it.
func TestPercentWithinCacheInvalidation(t *testing.T) {
	var r Recorder
	r.Record(0, 30*time.Millisecond)
	r.Record(0, 10*time.Millisecond)
	if got := r.PercentWithin(10 * time.Millisecond); got != 50 {
		t.Fatalf("PercentWithin(10ms) = %v, want 50", got)
	}
	if got := r.MaxLateness(); got != 30*time.Millisecond {
		t.Fatalf("MaxLateness = %v, want 30ms", got)
	}
	r.Record(0, 100*time.Millisecond)
	if got := r.PercentWithin(10 * time.Millisecond); got < 33.3 || got > 33.4 {
		t.Fatalf("PercentWithin(10ms) after Record = %v, want ~33.3", got)
	}
	if got := r.MaxLateness(); got != 100*time.Millisecond {
		t.Fatalf("MaxLateness after Record = %v, want 100ms", got)
	}
}

// Property: the CDF is monotone non-decreasing and bounded by 100, and
// PercentWithin agrees with the binned CDF at bin boundaries.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(lates []uint16) bool {
		var r Recorder
		for _, l := range lates {
			r.Record(0, time.Duration(l)*time.Millisecond/4)
		}
		cdf := r.CDF(50)
		prev := 0.0
		for i, v := range cdf {
			if v < prev || v > 100.0001 {
				return false
			}
			prev = v
			want := r.PercentWithin(time.Duration(i)*time.Millisecond + 999*time.Microsecond)
			if diff := v - want; diff > 0.01 || diff < -0.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFormatGraph(t *testing.T) {
	var a, b Recorder
	a.Record(0, 0)
	a.Record(0, 60*time.Millisecond)
	b.Record(0, 200*time.Millisecond)
	out := FormatGraph("Graph 1", []Series{
		{Label: "22 streams", Recorder: &a},
		{Label: "24 streams", Recorder: &b},
	}, []time.Duration{0, 50 * time.Millisecond, 150 * time.Millisecond})
	if !strings.Contains(out, "Graph 1") || !strings.Contains(out, "22 streams") {
		t.Fatalf("missing labels:\n%s", out)
	}
	if !strings.Contains(out, "50.0") {
		t.Errorf("expected 50.0%% entry:\n%s", out)
	}
	if !strings.Contains(out, "200") {
		t.Errorf("expected max lateness 200:\n%s", out)
	}
}

func TestRenderASCII(t *testing.T) {
	var good, bad Recorder
	for i := 0; i < 100; i++ {
		good.Record(0, time.Duration(i%20)*time.Millisecond)
		bad.Record(0, time.Duration(i*3)*time.Millisecond)
	}
	out := RenderASCII([]Series{
		{Label: "22 streams", Recorder: &good},
		{Label: "24 streams", Recorder: &bad},
	}, 300, 60, 12)
	if !strings.Contains(out, "* = 22 streams") || !strings.Contains(out, "+ = 24 streams") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "100% |") || !strings.Contains(out, "  0% |") {
		t.Fatalf("axis missing:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 15 {
		t.Fatalf("plot too small: %d lines", len(lines))
	}
	// Tiny parameters clamp rather than panic.
	small := RenderASCII([]Series{{Label: "x", Recorder: &good}}, 0, 1, 1)
	if small == "" {
		t.Fatal("empty render")
	}
}
