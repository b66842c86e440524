package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// row is the one schema every result is stored in.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
}

// The metric names a workload's operation counts travel under in a rows
// file.
const (
	rowOpsAttempted = "ops.attempted"
	rowOpsFailed    = "ops.failed"
)

// defs lists the metric definitions an outcome reports, in order.
func (o *outcome) defs() []metricDef {
	if o.traced {
		return perLayer
	}
	return endToEnd
}

// rows flattens the outcome, operation counts included.
func (o *outcome) rows() []row {
	var out []row
	for _, d := range o.defs() {
		v := o.vals[d.name]
		out = append(out, row{o.workload, d.name, d.unit, v.v, v.n})
	}
	if !o.traced {
		out = append(out,
			row{o.workload, rowOpsAttempted, "count", float64(o.res.attempted()), 1},
			row{o.workload, rowOpsFailed, "count", float64(o.res.failed()), 1})
	}
	return out
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, the operation counts, and the verdict.
func (o *outcome) print(w io.Writer) {
	kind := "untraced"
	if o.traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s seed %d, %s, %v window\n", o.workload, o.seed, kind, o.res.p.seconds)
	for _, d := range o.defs() {
		v := o.vals[d.name]
		fmt.Fprintf(w, "  %-32s %14.4f %-7s n=%d\n", d.name, v.v, d.unit, v.n)
	}
	vs := o.res.vs
	fmt.Fprintf(w, "  ops attempted %d failed %d; the hypervisor took %.1f %% of the CPU during the window\n",
		o.res.attempted(), o.res.failed(), o.res.stealPct)
	fmt.Fprintf(w, "    packets: %d intact, %d lost, %d corrupt, %d duplicate, %d reordered, over %d flows\n",
		vs.intact, vs.lost, vs.corrupt, vs.dups, vs.reordered, vs.flows)
	fmt.Fprintf(w, "    control: %d plays (%d failed, the slowest start %.0f ms), %d seeks (%d failed), %d quits (%d failed, %d acks lost to the close), %d cycles\n",
		vs.plays, vs.playsFailed, ms(vs.slowestStart), vs.seeks, vs.seeksFailed, vs.quits, vs.quitsFailed, vs.quitAcksLost, o.res.cycles)
	if vs.firstErr != nil {
		fmt.Fprintf(w, "    first failed command: %v\n", vs.firstErr)
	}
	if n := len(o.res.p.records); n > 0 {
		fmt.Fprintf(w, "    recordings: %d, %d packets sent (the latest %.1f ms late), %d committed intact, %d dropped at the MSU's sink sockets\n",
			n, o.res.recSent, quantile(o.res.recSendLate.sorted(), 1), o.res.recIntact, o.res.recSinkDrops)
	}
	for _, f := range o.res.failures {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", f)
	}
	for _, f := range o.res.invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", f)
	}
}

// contractLine is the object the benchmark contract wants as the last
// line of standard output.
func (o *outcome) contractLine() any {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]m)
	for _, d := range o.defs() {
		metrics[d.name] = m{o.vals[d.name].v, d.unit}
	}
	return struct {
		Correct   bool         `json:"correct"`
		Attempted int64        `json:"attempted"`
		Failed    int64        `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{o.res.correct(), o.res.attempted(), o.res.failed(), metrics}
}

// writeRows stores rows as a JSON array.
func writeRows(path string, rows []row) error {
	raw, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encoding rows: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing rows: %w", err)
	}
	return nil
}

func readRows(path string) ([]row, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading rows: %w", err)
	}
	var rows []row
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return rows, nil
}

// specJSON renders BENCHMARK.json from the tables in this package.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{d.name, d.unit, d.better})
	}
	raw, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// runSeconds is the window BENCHMARK.json asks the driver for.
const runSeconds = 24

func cmdSpec() int {
	raw, err := specJSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	os.Stdout.Write(raw) //nolint:errcheck // stdout
	return 0
}
