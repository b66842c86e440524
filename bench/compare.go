package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// suite runs every workload untraced and then traced, and returns the
// rows. The untraced run comes first so the traced one can say what
// tracing cost.
func suite(seed int64, seconds time.Duration, scratch string, log io.Writer) ([]row, bool, error) {
	var rows []row
	allCorrect := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runOnce(w, seed, seconds, traced, false, "", scratch)
			if err != nil {
				return nil, false, fmt.Errorf("%s: %w", w.name, err)
			}
			out.print(log)
			allCorrect = allCorrect && out.res.correct()
			rows = append(rows, out.rows()...)
		}
	}
	return rows, allCorrect, nil
}

func cmdSuite(args []string) int {
	fs := flag.NewFlagSet("bench suite", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed")
	seconds := fs.Int("seconds", runSeconds, "length of each measured window")
	out := fs.String("o", "", "write the rows to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := needCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rows, correct, err := suite(*seed, time.Duration(*seconds)*time.Second, scratchDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeRows(*out, rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}

// finding is one gated metric that got worse by more than it may.
type finding struct {
	workload, metric string
	base, cand       float64
	allowed          float64
}

func (f finding) String() string {
	return fmt.Sprintf("%s %s: %.4f -> %.4f (may worsen by %.4f)", f.workload, f.metric, f.base, f.cand, f.allowed)
}

// failedShareFloor is how much larger a workload's failed-operation
// share may get before bench compare objects: 0.1 percentage points. A
// host that holds the process up for longer than the harness allows for
// costs the odd operation (a handful in 7000), and that is noise to a
// comparison, not a verdict on the candidate.
const failedShareFloor = 0.001

// compareRows applies the bounds and floors to cand against base. A
// metric regresses when it is worse than the baseline by more than the
// larger of bound x baseline and the absolute floor; a workload
// regresses when its failed-operation share grew past failedShareFloor.
func compareRows(base, cand []row) []finding {
	type key struct{ w, m string }
	index := func(rows []row) map[key]float64 {
		m := make(map[key]float64, len(rows))
		for _, r := range rows {
			m[key{r.Workload, r.Metric}] = r.Value
		}
		return m
	}
	b, c := index(base), index(cand)
	var out []finding
	for _, r := range base {
		k := key{r.Workload, r.Metric}
		cv, both := c[k]
		d, known := findDef(r.Metric)
		if !both || !known || (d.bound == 0 && d.floor == 0) {
			continue
		}
		worse := cv - r.Value
		if d.better == "higher" {
			worse = -worse
		}
		allowed := math.Max(d.bound*math.Abs(r.Value), d.floor)
		if worse > allowed {
			out = append(out, finding{r.Workload, r.Metric, r.Value, cv, allowed})
		}
	}
	for _, w := range workloads {
		share := func(m map[key]float64) float64 {
			return ratio(m[key{w.name, rowOpsFailed}], m[key{w.name, rowOpsAttempted}])
		}
		if sb, sc := share(b), share(c); sc > sb+failedShareFloor {
			out = append(out, finding{w.name, "failed-operation share", sb, sc, failedShareFloor})
		}
	}
	return out
}

func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CANDIDATE.json")
		return 2
	}
	base, err := readRows(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cand, err := readRows(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return reportFindings(compareRows(base, cand))
}

func reportFindings(found []finding) int {
	for _, f := range found {
		fmt.Println("REGRESSION", f)
	}
	if len(found) > 0 {
		return 1
	}
	fmt.Println("no gated metric regressed")
	return 0
}

// cmdAA is the A/A check: the suite on the same code under 2 x runs
// seeds, odd seeds to one half and even seeds to the other (interleaved
// in time, so a slow quarter of an hour on a shared box lands on both),
// each half reduced to its per-metric medians, and each half compared
// against the other. A metric that cannot agree with itself cannot gate
// anything. One run a half is the quick check; a single run can catch a
// stall that a median shrugs off, which is why the default is three.
func cmdAA(args []string) int {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	seconds := fs.Int("seconds", runSeconds, "length of each measured window")
	runs := fs.Int("runs", 3, "suite runs per half; each half's rows are the medians over its runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench aa: -runs must be at least 1")
		return 2
	}
	if err := needCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var halves [2][][]row
	for i := 0; i < 2**runs; i++ {
		rows, _, err := suite(int64(i+1), time.Duration(*seconds)*time.Second, scratchDir, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		halves[i%2] = append(halves[i%2], rows)
	}
	var medians [2][]row
	for i := range halves {
		medians[i] = medianRows(halves[i])
		if err := writeRows(filepath.Join(scratchDir, fmt.Sprintf("aa-%d.json", i+1)), medians[i]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return reportFindings(append(compareRows(medians[0], medians[1]), compareRows(medians[1], medians[0])...))
}

// medianRows reduces several runs of the suite to one set of rows: each
// metric's median, each operation count's sum.
func medianRows(runs [][]row) []row {
	type key struct{ w, m string }
	byKey := make(map[key]sample)
	for _, rows := range runs {
		for _, r := range rows {
			byKey[key{r.Workload, r.Metric}] = append(byKey[key{r.Workload, r.Metric}], r.Value)
		}
	}
	out := append([]row(nil), runs[0]...)
	for i := range out {
		vals := byKey[key{out[i].Workload, out[i].Metric}]
		if out[i].Metric == rowOpsAttempted || out[i].Metric == rowOpsFailed {
			out[i].Value = 0
			for _, v := range vals {
				out[i].Value += v
			}
			continue
		}
		out[i].Value = median(vals)
	}
	return out
}
