// Command bench is Calliope's viewer-side benchmark: it starts a real
// in-process Coordinator and MSU, puts a mechanical disk under them
// from outside, serves self-describing content, and measures at the
// receiver. See README.md in this directory.
//
//	go run ./bench --workload cold_ramp --seed 1 --seconds 24 --trace 0
//	go run ./bench suite -o rows.json       every workload, untraced then traced
//	go run ./bench compare A.json B.json     apply the bounds; non-zero exit on a regression
//	go run ./bench aa                        the suite twice (seeds 1 and 2), halves compared
//	go run ./bench spec                      print BENCHMARK.json from the tables in metrics.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// scratchDir is where the bench keeps what it writes: trace files, the
// admindb probe's journal, A/A rows, and the last untraced CPU per
// packet of each workload (for trace.overhead_pct). It is inside the checkout and
// named in .gitignore.
const scratchDir = ".bench_build"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "suite":
			os.Exit(cmdSuite(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		case "aa":
			os.Exit(cmdAA(os.Args[2:]))
		case "spec":
			os.Exit(cmdSpec())
		}
	}
	os.Exit(cmdRun(os.Args[1:]))
}

// cmdRun is the contract's entry point: one workload, one seed, one
// run, and as the last line of standard output one JSON object.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: cold_ramp, hot_zipf, control_churn or record_beside_play")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", runSeconds, "length of the measured window")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := fs.String("trace-out", "", "where a traced run writes its spans (default "+scratchDir+"/trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need --workload, one of:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	if err := needCheckout(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out, err := runOnce(w, *seed, time.Duration(*seconds)*time.Second, *traced != 0, false, *traceOut, scratchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out.print(os.Stderr)
	line, err := json.Marshal(out.contractLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// needCheckout refuses to run outside a checkout of the repository: the
// benchmark measures this tree's server, not whatever is importable.
func needCheckout() error {
	for _, f := range []string{"go.mod", "calliope.go", "BENCHMARK.json"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the root of a calliope checkout: %w", err)
		}
	}
	return nil
}

// A run sets the cluster up several times and reports the median as
// setup_s; only the last set-up is measured against. At least minSetups,
// and more (up to maxSetups) while they are cheap enough that their sum
// stays under setupBudget: a 50 ms set-up needs more repeats to give a
// steady median than a 400 ms one. A quick run (the smoke test) sets up
// once.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond
)

func anotherSetup(done int, spent time.Duration, quick bool) bool {
	if quick {
		return done < 1
	}
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

// outcome is one finished run: its metrics and its verdict.
type outcome struct {
	workload string
	seed     int64
	traced   bool
	vals     values
	res      *result
}

// runOnce sets the workload up (several times, for a steady setup_s),
// measures it, and names the results.
func runOnce(w workloadInfo, seed int64, seconds time.Duration, traced, quick bool, traceOut, scratch string) (*outcome, error) {
	p := w.plan(seed, seconds)
	var setups sample
	var h *harness
	var spent time.Duration
	for anotherSetup(len(setups), spent, quick) {
		if h != nil {
			h.close()
		}
		runtime.GC() // each set-up starts from a collected heap, not from the last one's garbage
		var took time.Duration
		var err error
		if h, took, err = setup(p, traced); err != nil {
			return nil, err
		}
		setups.add(took.Seconds())
		spent += took
	}
	defer h.close()
	// Set-up's garbage (every title was generated in memory) is collected
	// now, so the collector is not still sweeping it inside the window.
	runtime.GC()
	res, err := h.run()
	if err != nil {
		return nil, err
	}
	res.setup = setups
	out := &outcome{workload: w.name, seed: seed, traced: traced, res: res}
	if !traced {
		out.vals = res.endToEndValues()
		saveUntraced(scratch, w.name, res.cpuPerPkt())
		return out, nil
	}
	out.vals = res.layerValues(h, scratch, loadUntraced(scratch, w.name))
	if traceOut == "" {
		traceOut = filepath.Join(scratch, "trace-"+w.name+".json")
	}
	if err := h.tr.write(traceOut, w.name, seed); err != nil {
		return nil, err
	}
	return out, nil
}

// untracedPath is where the last untraced run of a workload leaves its
// CPU per packet, so a later traced run can say what tracing cost.
func untracedPath(scratch, workload string) string {
	return filepath.Join(scratch, "untraced-cpu-"+workload)
}

func saveUntraced(scratch, workload string, cpuPerPkt float64) {
	if os.MkdirAll(scratch, 0o755) == nil {
		os.WriteFile(untracedPath(scratch, workload), []byte(strconv.FormatFloat(cpuPerPkt, 'g', -1, 64)), 0o644) //nolint:errcheck // a convenience for trace.overhead_pct, which reads 0 without it
	}
}

// loadUntraced returns the last untraced CPU per packet of a workload,
// or 0 when there is none.
func loadUntraced(scratch, workload string) float64 {
	raw, err := os.ReadFile(untracedPath(scratch, workload))
	if err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return 0
	}
	return v
}
