package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke keeps the benchmark compiling and honest without running it
// at length: every workload for two seconds, traced, with one set-up.
// It asserts what must hold on any machine however loaded — packets
// flowed, nothing arrived corrupt, every correctness check passed, and
// exactly the metrics BENCHMARK.json names came out, once each — and
// nothing about how fast.
func TestSmoke(t *testing.T) {
	scratch := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			out, err := runOnce(w, 1, 2*time.Second, true, true, filepath.Join(scratch, w.name+".trace.json"), scratch)
			if err != nil {
				t.Fatal(err)
			}
			res := out.res
			if res.vs.intact == 0 || res.vs.plays == 0 {
				t.Fatalf("no packets flowed: %d packets over %d plays", res.vs.intact, res.vs.plays)
			}
			if res.vs.corrupt != 0 {
				t.Fatalf("%d corrupt datagrams", res.vs.corrupt)
			}
			for _, f := range res.failures {
				t.Errorf("failed check: %s", f)
			}
			// Not "every packet": on a loaded machine a sink's socket can
			// still hold a few when the recording is stopped.
			if len(res.p.records) > 0 && (res.recSent == 0 || res.recIntact*10 < res.recSent*9) {
				t.Errorf("recordings: %d packets sent, %d committed intact", res.recSent, res.recIntact)
			}
			if len(res.p.churn) > 0 && res.cycles == 0 {
				t.Error("the closed loop completed no cycle")
			}

			// The traced run's metrics are the per-layer set; the same run's
			// viewer statistics give the end-to-end set.
			checkNames(t, "per-layer", out.vals, perLayer)
			e2e := res.endToEndValues()
			checkNames(t, "end-to-end", e2e, endToEnd)
			for _, d := range endToEnd {
				if res.vs.counted == 0 && d.name == "ontime50_pct" {
					continue // two seconds end where the start-up transient does: nothing to count yet
				}
				if e2e[d.name].v <= 0 {
					t.Errorf("end-to-end metric %s = %v: it must never be zero", d.name, e2e[d.name].v)
				}
			}
			// The contract line carries exactly those names too.
			raw, err := json.Marshal(out.contractLine())
			if err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted int64                      `json:"attempted"`
				Failed    *int64                     `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(raw, &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Failed == nil || line.Attempted < 1 || len(line.Metrics) != len(perLayer) {
				t.Errorf("contract line %s", raw)
			}
		})
	}
}

// checkNames asserts vals holds exactly the metrics defs names.
func checkNames(t *testing.T, kind string, vals values, defs []metricDef) {
	t.Helper()
	want := make(map[string]bool, len(defs))
	for _, d := range defs {
		want[d.name] = true
		if _, ok := vals[d.name]; !ok {
			t.Errorf("%s metric %s was not emitted", kind, d.name)
		}
	}
	for name := range vals {
		if !want[name] {
			t.Errorf("%s metric %s is emitted and not named in BENCHMARK.json", kind, name)
		}
	}
}
