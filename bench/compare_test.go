package main

import (
	"bytes"
	"os"
	"testing"
)

func rowsOf(workload string, vals map[string]float64) []row {
	var out []row
	for m, v := range vals {
		out = append(out, row{Workload: workload, Metric: m, Value: v, N: 1})
	}
	return out
}

func TestCompareBoundsAndFloors(t *testing.T) {
	base := rowsOf("cold_ramp", map[string]float64{
		"startup_p50_ms": 100, "viewer.seek_p50_ms": 1.0, "goodput_mbps": 50, "ontime50_pct": 99.5,
		"viewer.loss_pct": 0, "blockdev.reads": 1000,
		rowOpsAttempted: 1000, rowOpsFailed: 0,
	})
	within := rowsOf("cold_ramp", map[string]float64{
		"startup_p50_ms":     124,  // +24 %: inside the 25 % bound
		"viewer.seek_p50_ms": 1.25, // +25 % but only +0.25 ms: under the 0.3 ms floor
		"goodput_mbps":       41,   // -18 %: inside 20 %
		"ontime5_pct":        95.6, // -3.9 pp of 99.5: inside 4 %
		"viewer.loss_pct":    0.04, // under the 0.05 pp floor
		"blockdev.reads":     5000, // a layer counter: not gated
		rowOpsAttempted:      1000, rowOpsFailed: 0,
	})
	if found := compareRows(base, within); len(found) != 0 {
		t.Fatalf("changes inside the bounds were called regressions: %v", found)
	}
	beyond := rowsOf("cold_ramp", map[string]float64{
		"startup_p50_ms": 126, "viewer.seek_p50_ms": 1.4, "goodput_mbps": 39, "ontime50_pct": 94.4,
		"viewer.loss_pct": 0.06, "blockdev.reads": 1000,
		rowOpsAttempted: 1000, rowOpsFailed: 2,
	})
	found := compareRows(base, beyond)
	got := make(map[string]bool)
	for _, f := range found {
		got[f.metric] = true
	}
	for _, m := range []string{"startup_p50_ms", "viewer.seek_p50_ms", "goodput_mbps", "ontime50_pct", "viewer.loss_pct", "failed-operation share"} {
		if !got[m] {
			t.Errorf("%s regressed past its bound and was not reported (found %v)", m, found)
		}
	}
	if len(found) != 6 {
		t.Errorf("%d findings, want 6: %v", len(found), found)
	}
	// Getting better is never a regression.
	if found := compareRows(beyond, base); len(found) != 0 {
		t.Fatalf("improvements were called regressions: %v", found)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in metrics.go
// and workloads.go together: `go run ./bench spec > BENCHMARK.json`
// regenerates the file.
func TestBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the bench's own tables; regenerate it with `go run ./bench spec > BENCHMARK.json`")
	}
	seen := make(map[string]bool)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.name] {
				t.Errorf("metric %s is defined twice", d.name)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("metric %s: direction %q", d.name, d.better)
			}
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

func TestMedianRows(t *testing.T) {
	run := func(startup, attempted, failed float64) []row {
		return []row{
			{Workload: "hot_zipf", Metric: "startup_p50_ms", Unit: "ms", Value: startup, N: 48},
			{Workload: "hot_zipf", Metric: rowOpsAttempted, Unit: "count", Value: attempted, N: 1},
			{Workload: "hot_zipf", Metric: rowOpsFailed, Unit: "count", Value: failed, N: 1},
		}
	}
	got := medianRows([][]row{run(47, 1000, 0), run(140, 1000, 3), run(49, 1000, 0)})
	if got[0].Value != 49 || got[1].Value != 3000 || got[2].Value != 3 {
		t.Fatalf("medianRows = %+v; want the median timing 49 and summed operations 3000 and 3", got)
	}
}
