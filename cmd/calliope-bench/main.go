// Command calliope-bench regenerates every table and figure in the
// paper's evaluation (§3) plus the section-experiments, printing each
// in the paper's own layout next to the published values. The same
// measurements run as `go test -bench` via bench_test.go; this binary
// is the human-readable form and the source of EXPERIMENTS.md.
//
// Usage:
//
//	calliope-bench [-dur 2m] [-json out.json] [table1|graph1|graph2|hbastall|mempath|scale|elevator|ibtree|jitter|striping|iosched|delivery|replicate|all]...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"calliope"
	"calliope/internal/coordinator"
	"calliope/internal/fakemsu"
	"calliope/internal/ibtree"
	"calliope/internal/media"
	"calliope/internal/msu"
	"calliope/internal/msufs"
	"calliope/internal/simhw"
	"calliope/internal/simmsu"
	"calliope/internal/trace"
	"calliope/internal/units"
)

var (
	simDur   = flag.Duration("dur", 2*time.Minute, "simulated duration per throughput experiment (the paper ran 6m)")
	csvOut   = flag.Bool("csv", false, "for graph1/graph2: emit the full 1 ms-bin CDF as CSV for plotting")
	jsonOut  = flag.String("json", "", "write machine-readable results for the experiments that produce them (iosched, delivery, replicate) to this path")
	sessions = flag.Int("sessions", 3, "for iosched/delivery: measured sessions per variant")
)

// jsonResults collects the machine-readable entries experiments append;
// main writes them to -json at exit. See README for the schema.
var jsonResults []msu.BenchResult

// emitCSV prints the cumulative distributions as plot-ready CSV:
// one row per millisecond bin, one column per series.
func emitCSV(series []trace.Series, maxMs int) {
	fmt.Print("ms_late")
	for _, s := range series {
		fmt.Printf(",%q", s.Label)
	}
	fmt.Println()
	cdfs := make([][]float64, len(series))
	for i, s := range series {
		cdfs[i] = s.Recorder.CDF(maxMs)
	}
	for ms := 0; ms <= maxMs; ms++ {
		fmt.Print(ms)
		for i := range series {
			fmt.Printf(",%.3f", cdfs[i][ms])
		}
		fmt.Println()
	}
}

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	experiments := map[string]func(){
		"table1":    table1,
		"graph1":    graph1,
		"graph2":    graph2,
		"hbastall":  hbaStall,
		"mempath":   memPath,
		"scale":     scale,
		"elevator":  elevator,
		"ibtree":    ibtreeOverhead,
		"jitter":    jitterBound,
		"striping":  striping,
		"iosched":   ioschedLive,
		"delivery":  deliveryPath,
		"replicate": replicateXfer,
	}
	all := []string{"table1", "graph1", "graph2", "hbastall", "mempath", "scale", "elevator", "ibtree", "jitter", "striping", "iosched", "delivery", "replicate"}
	for i, which := range args {
		names := []string{which}
		if which == "all" {
			names = all
		} else if _, ok := experiments[which]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
			os.Exit(2)
		}
		for j, name := range names {
			if i+j > 0 {
				fmt.Println()
			}
			experiments[name]()
		}
	}
	if *jsonOut != "" {
		writeJSON(*jsonOut)
	}
}

// writeJSON emits the collected machine-readable entries.
func writeJSON(path string) {
	if len(jsonResults) == 0 {
		fmt.Fprintln(os.Stderr, "calliope-bench: -json set but no selected experiment produces machine-readable results (iosched, delivery, replicate do)")
		os.Exit(2)
	}
	buf, err := json.MarshalIndent(jsonResults, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d results to %s\n", len(jsonResults), path)
}

func header(title string) {
	fmt.Println(strings.Repeat("=", 78))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 78))
}

// table1 reruns Table 1: Baseline Performance Measurements.
func table1() {
	header("Table 1: Baseline Performance Measurements (10^6 bytes/sec)")
	paper := map[string][2][]float64{
		// label → {disks-only…, FDDI+disks…} with FDDI first in combined.
		"0 disk":           {{}, {8.5}},
		"1 disk (one HBA)": {{3.6}, {5.9, 3.4}},
		"2 disk (one HBA)": {{2.8, 2.8}, {4.7, 2.4, 2.4}},
		"2 disk (two HBA)": {{2.9, 2.9}, {2.3, 2.7, 2.7}},
		"3 disk (two HBA)": {{2.2, 2.2, 2.7}, {1.4, 1.9, 1.9, 2.5}},
	}
	cells, err := simhw.RunTable1(simhw.DefaultConfig(), 60*time.Second)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-20s | %-28s | %-36s\n", "", "Disks only (per disk)", "Disks and FDDI (FDDI, then disks)")
	fmt.Printf("%-20s | %-28s | %-36s\n", "configuration", "measured        paper", "measured                 paper")
	fmt.Println(strings.Repeat("-", 92))
	for _, c := range cells {
		p := paper[c.Row.Label]
		disksOnly := fmtFloats(c.DisksOnly.Disks)
		combined := ""
		if len(c.Row.DiskHBA) == 0 {
			combined = fmtFloats([]float64{c.Combined.FDDI})
		} else {
			combined = fmtFloats(append([]float64{c.Combined.FDDI}, c.Combined.Disks...))
		}
		fmt.Printf("%-20s | %-15s %-12s | %-24s %s\n",
			c.Row.Label, disksOnly, fmtFloats(p[0]), combined, fmtFloats(p[1]))
	}
}

func fmtFloats(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return strings.Join(parts, " ")
}

// cbrSeries runs one Graph 1 curve.
func cbrSeries(n int) *simmsu.Result {
	cfg := simmsu.DefaultConfig()
	cfg.Duration = *simDur
	cfg.StartStagger = 60 * time.Millisecond
	streams := make([]*simmsu.Stream, n)
	for i := range streams {
		streams[i] = simmsu.CBRStream(1500*units.Kbps, 4*units.KB, cfg.BlockSize, cfg.Duration)
	}
	res, err := simmsu.Run(cfg, streams)
	if err != nil {
		fatal(err)
	}
	return res
}

var graphThresholds = []time.Duration{
	0, 10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
	150 * time.Millisecond, 300 * time.Millisecond,
}

// graph1 reruns Graph 1: Cumulative Packet Delivery Distribution of
// Constant Bit Rate Streams.
func graph1() {
	if !*csvOut {
		header("Graph 1: Cumulative Packet Delivery Distribution — constant-rate streams")
	}
	var series []trace.Series
	for _, n := range []int{22, 23, 24} {
		res := cbrSeries(n)
		series = append(series, trace.Series{
			Label:    fmt.Sprintf("%d 1.5 Mbit/s streams", n),
			Recorder: res.Recorder,
		})
	}
	if *csvOut {
		emitCSV(series, 300)
		return
	}
	fmt.Print(trace.RenderASCII(series, 300, 64, 14))
	fmt.Print(trace.FormatGraph("", series, graphThresholds))
	fmt.Println("paper: 22 streams deliver 99.6% within 50 ms (max <150 ms); 23 degrades; 24 collapses to 38% within 50 ms")
}

// vbrSeries runs one Graph 2 curve over nfiles synthetic nv captures.
func vbrSeries(n, nfiles int) *simmsu.Result {
	cfg := simmsu.DefaultConfig()
	cfg.Duration = *simDur
	rates := []units.BitRate{650 * units.Kbps, 635 * units.Kbps, 877 * units.Kbps}
	files := make([][]media.Packet, nfiles)
	for i := range files {
		pkts, err := media.GenerateVBR(media.VBRConfig{
			TargetRate: rates[i%len(rates)], FPS: 15, PacketSize: 1024,
			Duration: time.Minute, Seed: int64(i + 1),
		})
		if err != nil {
			fatal(err)
		}
		files[i] = pkts
	}
	streams := make([]*simmsu.Stream, n)
	for i := range streams {
		streams[i] = simmsu.MediaStream(files[i%nfiles], cfg.BlockSize, cfg.Duration)
	}
	res, err := simmsu.Run(cfg, streams)
	if err != nil {
		fatal(err)
	}
	return res
}

// graph2 reruns Graph 2 plus the single-file aside.
func graph2() {
	if !*csvOut {
		header("Graph 2: Cumulative Packet Delivery Distribution — variable-rate streams")
	}
	var series []trace.Series
	for _, n := range []int{15, 16, 17} {
		res := vbrSeries(n, 3)
		series = append(series, trace.Series{
			Label:    fmt.Sprintf("%d variable rate streams", n),
			Recorder: res.Recorder,
		})
	}
	for _, n := range []int{11, 15} {
		res := vbrSeries(n, 1)
		series = append(series, trace.Series{
			Label:    fmt.Sprintf("%d streams, single file", n),
			Recorder: res.Recorder,
		})
	}
	if *csvOut {
		emitCSV(series, 300)
		return
	}
	fmt.Print(trace.RenderASCII(series, 300, 64, 14))
	fmt.Print(trace.FormatGraph("", series, graphThresholds))
	fmt.Println("paper: VBR service is substantially worse than CBR at a fraction of the bandwidth;")
	fmt.Println("       with a single shared file the MSU sustains only 11 streams instead of 15 (§3.2.2)")
}

// hbaStall reruns the §3.1 timer-read instrument.
func hbaStall() {
	header("§3.1: EISA PIO stall — timer-read instruction latency vs active HBAs")
	fmt.Printf("%-10s %12s %12s %12s    %s\n", "HBAs busy", "mean", "p99", "max", "paper")
	paper := []string{"~4 µs", "occasionally ~1 ms", "often ~20 ms"}
	for hbas := 0; hbas <= 2; hbas++ {
		samples := simhw.RunTimerProbe(simhw.DefaultConfig(), hbas, 4000)
		var rec trace.Recorder
		var sum time.Duration
		for _, s := range samples {
			sum += s
			rec.Record(0, s)
		}
		fmt.Printf("%-10d %12v %12v %12v    %s\n",
			hbas, (sum / time.Duration(len(samples))).Round(time.Microsecond),
			rec.Percentile(99), rec.MaxLateness(), paper[hbas])
	}
}

// memPath reruns §3.2.3's disk-less data path.
func memPath() {
	header("§3.2.3: memory-bandwidth bottleneck — disk-less data path")
	cfg := simhw.DefaultConfig()
	analytic := simhw.AnalyticMemPathMBps(cfg)
	measured := simhw.RunMemPath(cfg, 30*time.Second)
	fmt.Printf("analytic bound 1/(1/25+1/18+2/53): %5.2f MB/s   (paper: 7.5)\n", analytic)
	fmt.Printf("measured writer+sender path:       %5.2f MB/s   (paper: 6.3)\n", measured)
	fmt.Println("the gap is per-packet instruction overhead that the pure byte-moving bound omits")
}

// scale reruns §3.3 with fake MSUs.
func scale() {
	header("§3.3: Coordinator scalability — 2 fake MSUs (50 ms), 2 clients, ~60 req/s")
	coord, err := coordinator.New(coordinator.Config{Types: calliope.DefaultTypes()})
	if err != nil {
		fatal(err)
	}
	if err := coord.Start(); err != nil {
		fatal(err)
	}
	defer coord.Close()
	cfg := fakemsu.DefaultConfig()
	cfg.Requests = 3000 // 10,000 in the paper; 3,000 keeps the run under a minute
	res, err := fakemsu.Run(coord.Addr(), cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("requests: %d at %.1f req/s (%d errors) over %v\n",
		res.Requests, res.AchievedRate, res.Errors, res.Duration.Round(time.Millisecond))
	fmt.Printf("Coordinator CPU utilization: %5.1f%%   (paper: 14%% — whole-process rusage here, an upper bound)\n", res.CPUUtil*100)
	fmt.Printf("intra-server network:        %5.1f%%   (paper: 6%% of Ethernet; %d bytes on the wire)\n", res.NetUtil*100, res.WireBytes)
	fmt.Printf("extrapolation: 3000 streams / 150 MSUs with 1-minute sessions → %.0f req/s (paper: 50)\n",
		fakemsu.ExtrapolatedRequestRate(3000, time.Minute))
}

// elevator reruns §2.3.3's disk-head-scheduling probe.
func elevator() {
	header("§2.3.3: disk head scheduling — 24 readers of random 256 KB blocks")
	cfg := simhw.DefaultConfig()
	rr := simhw.RunSchedulingProbe(cfg, simhw.FIFO, 24, 120*time.Second)
	el := simhw.RunSchedulingProbe(cfg, simhw.Elevator, 24, 120*time.Second)
	fmt.Printf("round-robin (the MSU's policy): %5.2f MB/s\n", rr)
	fmt.Printf("elevator (SCAN):                %5.2f MB/s\n", el)
	fmt.Printf("improvement: %.1f%%   (paper: ~6%% — rotation and settle dominate, large blocks amortize seeks)\n",
		(el/rr-1)*100)
}

// ibtreeOverhead reruns E7.
func ibtreeOverhead() {
	header("§2.2.1: Integrated B-tree overhead — 30 min of 1.5 Mbit/s video, 4 KB packets")
	f := &memBlockFile{bs: int(256 * units.KB), blocks: map[int64][]byte{}}
	b, err := ibtree.NewBuilder(f, int(256*units.KB), ibtree.DefaultMaxKeys)
	if err != nil {
		fatal(err)
	}
	payload := make([]byte, 4096)
	interval := units.BitRate(1500 * units.Kbps).Duration(4096)
	for i := 0; i < 82000; i++ {
		if err := b.Append(ibtree.Packet{Time: time.Duration(i) * interval, Payload: payload}); err != nil {
			fatal(err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("data pages: %d   packets: %d   tree height: %d\n", meta.Pages, meta.Packets, meta.RootLevel)
	fmt.Printf("pages containing internal pages: %.2f%%   (paper: ~0.1%%)\n",
		float64(meta.IndexPages)/float64(meta.Pages)*100)
	fmt.Printf("index bytes vs data bytes:       %.4f%%  (does not affect read bandwidth appreciably)\n",
		float64(meta.IndexBytes)/float64(meta.DataBytes)*100)
	fmt.Println("every page write carries its embedded index in the same single disk transfer")
}

// jitterBound reruns E8.
func jitterBound() {
	header("§2.2.1: worst-case MSU-added jitter at the supported load (22 streams)")
	res := cbrSeries(22)
	fmt.Printf("max lateness:    %v   (paper bound: 150 ms)\n", res.Recorder.MaxLateness().Round(time.Millisecond))
	fmt.Printf("99.9th pct:      %v\n", res.Recorder.Percentile(99.9).Round(time.Millisecond))
	buffer := units.BitRate(1500 * units.Kbps).Duration(200 * units.KB)
	fmt.Printf("a 200 KB client buffer holds %v of 1.5 Mbit/s video (paper: \"more than one second\")\n",
		buffer.Round(time.Millisecond))
}

// striping measures §2.3.3's layout trade-off: a popular item pinned
// to one disk vs striped across both, 20 streams on a 2-disk MSU.
func striping() {
	header("§2.3.3: striped vs non-striped layout — 20 streams of one popular item, 2 disks")
	run := func(striped bool) *simmsu.Result {
		cfg := simmsu.DefaultConfig()
		cfg.Duration = *simDur
		cfg.StartStagger = 60 * time.Millisecond
		cfg.Striped = striped
		if !striped {
			cfg.PinAllToDisk = 0
		}
		streams := make([]*simmsu.Stream, 20)
		for i := range streams {
			streams[i] = simmsu.CBRStream(1500*units.Kbps, 4*units.KB, cfg.BlockSize, cfg.Duration)
		}
		res, err := simmsu.Run(cfg, streams)
		if err != nil {
			fatal(err)
		}
		return res
	}
	pinned := run(false)
	striped := run(true)
	fmt.Printf("pinned to one disk: %5.1f%% within 50 ms   (1/N of customers reach any one item)\n",
		pinned.Recorder.PercentWithin(50*time.Millisecond))
	fmt.Printf("striped across two: %5.1f%% within 50 ms   (all customers reach all items)\n",
		striped.Recorder.PercentWithin(50*time.Millisecond))
	fmt.Println("cost: the striped duty cycle multiplies the worst-case VCR-command delay by N (§2.3.3)")
}

// ioschedLive measures the per-disk I/O scheduler on the real player
// path — §2.3.3's elevator result on the live MSU rather than E6's
// synthetic readers: 24 concurrent players over one mechanically
// modelled volume, read through C-SCAN rounds. (The unscheduled path it
// was once compared with is gone; BENCH_8.json keeps its numbers.)
func ioschedLive() {
	header("§2.2.1/§2.3.3: live-path I/O scheduler — 24 players, C-SCAN rounds")
	results, err := msu.MeasureIOSched(*sessions)
	if err != nil {
		fatal(err)
	}
	jsonResults = append(jsonResults, results...)
	fmt.Printf("%-16s %12s %12s %12s %12s\n", "", "session", "pkts/s", "seek MB/ses", "xfers/ses")
	for _, r := range results {
		fmt.Printf("%-16s %12v %12.0f %12.0f %12.0f\n",
			r.Name, time.Duration(r.NsPerOp).Round(time.Millisecond), r.PktsPerSec, r.SeekMBPerOp, r.XfersPerOp)
	}
}

// deliveryPath measures the zero-copy delivery pipeline on a
// memory-backed volume: per-packet cost and amortized allocations from
// disk process to UDP write.
func deliveryPath() {
	header("§2.3: zero-copy delivery path — disk process → descriptor queue → UDP")
	res, err := msu.MeasureDelivery(*sessions)
	if err != nil {
		fatal(err)
	}
	jsonResults = append(jsonResults, res)
	fmt.Printf("%-20s %12.0f pkts/s   %8.0f ns/pkt   %6.3f allocs/pkt (amortized)\n",
		res.Name, res.PktsPerSec, res.NsPerOp, res.AllocsPerOp)
	fmt.Println("steady state allocates nothing per packet; the residue is per-session setup")
}

type memBlockFile struct {
	bs     int
	blocks map[int64][]byte
}

func (m *memBlockFile) WriteBlock(i int64, p []byte) error {
	cp := make([]byte, len(p))
	copy(cp, p)
	m.blocks[i] = cp
	return nil
}
func (m *memBlockFile) ReadBlock(i int64, p []byte) error { copy(p, m.blocks[i]); return nil }
func (m *memBlockFile) BlockLen(i int64) int              { return len(m.blocks[i]) }

// replicateXfer measures demand-driven replication (DESIGN.md §3h) on
// a real two-MSU cluster: two live streams soak the source disk to 75%
// of its duty cycle, a queued play forces a background copy onto the
// empty MSU over the remaining slack, and the experiment reports the
// copy's throughput next to the live streams' end-to-end lateness with
// and without the copy — the §3h preemption rule says the copy may
// only use idle bandwidth, so live delivery must not move.
func replicateXfer() {
	header("§3h: demand-driven replication — copy throughput vs live-stream lateness")
	const hogLen, movieLen = 6 * time.Second, 2 * time.Second

	// run plays two 1500 Kbps streams against a 4000 Kbps disk and
	// reports how far past their nominal length they finish; with
	// withCopy it also queues a third play, which can only be admitted
	// once the Coordinator has replicated its title over the ~1000 Kbps
	// of slack, and times that copy.
	run := func(withCopy bool) (overrun, copyDur, admitWait time.Duration, copied int64) {
		gen := func(d time.Duration) []calliope.Packet {
			pkts, err := media.GenerateCBR(media.CBRConfig{
				Rate: 1500 * units.Kbps, PacketSize: 1024, FPS: 30, GOP: 15, Duration: d,
			})
			if err != nil {
				fatal(err)
			}
			return pkts
		}
		hog, movie := gen(hogLen), gen(movieLen)
		cluster, err := calliope.StartCluster(calliope.ClusterConfig{
			MSUs:          2,
			BlockSize:     64 * 1024,
			DiskBandwidth: 4000 * units.Kbps,
			NetBandwidth:  20 * units.Mbps,
			CacheBytes:    -1, // keep the streams disk-bound so the slack is exact
			Preload: func(m, d int, vol *msufs.Volume) error {
				if m != 0 {
					return nil
				}
				if err := calliope.Ingest(vol, "hog", "mpeg1", hog); err != nil {
					return err
				}
				return calliope.Ingest(vol, "movie", "mpeg1", movie)
			},
		})
		if err != nil {
			fatal(err)
		}
		defer cluster.Close()
		admin, err := calliope.Dial(cluster.Addr(), "bench")
		if err != nil {
			fatal(err)
		}
		defer admin.Close()

		start := time.Now()
		var streams []*calliope.Stream
		for i := 0; i < 2; i++ {
			recv, err := calliope.NewReceiver("")
			if err != nil {
				fatal(err)
			}
			defer recv.Close()
			port := fmt.Sprintf("hog%d", i)
			if err := admin.RegisterPort(port, "mpeg1", recv.Addr(), ""); err != nil {
				fatal(err)
			}
			s, err := admin.Play("hog", port, false)
			if err != nil {
				fatal(err)
			}
			streams = append(streams, s)
		}

		if withCopy {
			// The queued play needs its own session: a Wait-play blocks
			// its control connection until admitted.
			viewer, err := calliope.Dial(cluster.Addr(), "bench-viewer")
			if err != nil {
				fatal(err)
			}
			defer viewer.Close()
			recv, err := calliope.NewReceiver("")
			if err != nil {
				fatal(err)
			}
			defer recv.Close()
			if err := viewer.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
				fatal(err)
			}
			admitCh := make(chan time.Duration, 1)
			go func() {
				q := time.Now()
				if _, err := viewer.Play("movie", "tv", true); err != nil {
					fatal(err)
				}
				admitCh <- time.Since(q)
			}()
			var copyStart, copyEnd time.Time
			for copyEnd.IsZero() {
				st, err := admin.StatusV2()
				if err != nil {
					fatal(err)
				}
				s := st.Snapshot
				if copyStart.IsZero() && s.Gauge("repl_active") >= 1 {
					copyStart = time.Now()
				}
				if s.Counter("repl_completed_total") >= 1 {
					copyEnd = time.Now()
					copied = s.Counter("repl_bytes_copied_total")
				}
				if time.Since(start) > 30*time.Second {
					fatal(fmt.Errorf("replication never completed"))
				}
				time.Sleep(10 * time.Millisecond)
			}
			if copyStart.IsZero() {
				copyStart = copyEnd
			}
			copyDur = copyEnd.Sub(copyStart)
			admitWait = <-admitCh
		}

		for _, s := range streams {
			select {
			case <-s.EOF():
			case <-time.After(hogLen + 20*time.Second):
				fatal(fmt.Errorf("live stream never reached EOF"))
			}
		}
		overrun = time.Since(start) - streams[0].Length()
		return overrun, copyDur, admitWait, copied
	}

	base, _, _, _ := run(false)
	during, copyDur, admitWait, copied := run(true)
	mbps := 0.0
	if copyDur > 0 {
		mbps = float64(copied) / 1e6 / copyDur.Seconds()
	}
	fmt.Printf("copy: %s in %v  (%.2f MB/s over ~1 Mbit/s of slack)   queued play admitted after %v\n",
		units.ByteSize(copied), copyDur.Round(time.Millisecond), mbps, admitWait.Round(time.Millisecond))
	fmt.Printf("live-stream finish lateness: %v idle, %v during the copy\n",
		base.Round(time.Millisecond), during.Round(time.Millisecond))
	fmt.Println("the copy rides only idle duty-cycle slots, so live lateness is unchanged (§3h)")
	jsonResults = append(jsonResults,
		// For the copy entry ns_op is the copy's wall time, pkts_s its
		// MB/s and seek_mb_op the MB moved; the stream entries carry
		// finish lateness in ns_op.
		msu.BenchResult{Name: "replicate/copy", NsPerOp: float64(copyDur), PktsPerSec: mbps, SeekMBPerOp: float64(copied) / 1e6},
		msu.BenchResult{Name: "replicate/streams-idle", NsPerOp: float64(base)},
		msu.BenchResult{Name: "replicate/streams-during-copy", NsPerOp: float64(during)},
	)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calliope-bench:", err)
	os.Exit(1)
}
