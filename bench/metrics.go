package main

import (
	"fmt"
	"time"
)

// metricDef describes one named metric: its unit, which way is better,
// and — for the gated ones — how far it may worsen before bench compare
// calls it a regression: bound is a share of the baseline, floor an
// absolute amount in the metric's unit, and the larger of the two
// applies. BENCHMARK.json carries the same names, units, directions and
// bounds (TestBenchmarkJSON holds the two together); the floors live
// only here, because that file's schema has no place for them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	floor  float64
}

// endToEnd are the metrics a viewer of the system would see. Every
// workload reports every one of them, none is ever zero (so each has a
// baseline to be a share of), and each repeats across seeds well inside
// its bound on every workload. The viewer-side numbers that cannot do
// all three — they exist on one workload only (capacity, cycles, seek,
// record loss), or are too few (admit on 16 to 48 plays) or too noisy on
// a shared box (CPU per packet, the 5 ms on-time share) to repeat — are
// reported by the traced run as viewer.* rows, below. bench/README.md lists the demotions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.05},
	{"ontime50_pct", "%", "higher", 0.05, 0},
	{"delivered_pct", "%", "higher", 0.001, 0},
	{"startup_p50_ms", "ms", "lower", 0.25, 0.3},
	{"goodput_mbps", "Mbit/s", "higher", 0.20, 0},
}

// perLayer are the single-layer metrics of a traced run, named
// <module>.<metric>. bench compare gates only those with a bound.
var perLayer = []metricDef{
	// What one workload's viewers see and the others' do not, and what
	// is too noisy to gate (no bound): bench compare holds the first kind
	// to a bound wide enough for two runs of the same code to agree.
	{"viewer.ontime5_pct", "%", "higher", 0.05, 0},
	{"viewer.loss_pct", "%", "lower", 0, 0.05},
	{"viewer.record_loss_pct", "%", "lower", 0, 0.05},
	{"viewer.cycles_per_s", "1/s", "higher", 0.15, 0},
	{"viewer.seek_p50_ms", "ms", "lower", 0.15, 0.3},
	{"viewer.capacity_mbps", "Mbit/s", "higher", 0, 0},
	{"viewer.seek_p99_ms", "ms", "lower", 0, 0},
	{"viewer.startup_p99_ms", "ms", "lower", 0, 0},
	{"viewer.admit_p50_ms", "ms", "lower", 0, 0},
	{"viewer.admit_p99_ms", "ms", "lower", 0, 0},
	{"viewer.cpu_us_per_pkt", "us", "lower", 0, 0},

	{"blockdev.reads", "count", "lower", 0, 0},
	{"blockdev.read_mb", "MB", "lower", 0, 0},
	{"blockdev.read_busy_s", "s", "lower", 0, 0},
	{"blockdev.read_p50_ms", "ms", "lower", 0, 0},
	{"blockdev.read_p99_ms", "ms", "lower", 0, 0},
	{"blockdev.writes", "count", "lower", 0, 0},
	{"blockdev.write_mb", "MB", "lower", 0, 0},
	{"blockdev.write_busy_s", "s", "lower", 0, 0},
	{"blockdev.seek_mb", "MB", "lower", 0, 0},
	{"blockdev.util_pct", "%", "lower", 0, 0},

	{"iosched.requests", "count", "lower", 0, 0},
	{"iosched.rounds", "count", "lower", 0, 0},
	{"iosched.round_size", "count", "higher", 0, 0},
	{"iosched.coalesced_pct", "%", "higher", 0, 0},
	{"iosched.queue_peak", "count", "lower", 0, 0},
	{"iosched.late_pct", "%", "lower", 0, 0},
	{"iosched.max_late_ms", "ms", "lower", 0, 0},
	{"iosched.submit_d1_us", "us", "lower", 0, 0},
	{"iosched.submit_d32_us", "us", "lower", 0, 0},

	{"cache.hit_pct", "%", "higher", 0, 0},
	{"cache.lookups", "count", "lower", 0, 0},
	{"cache.inserts", "count", "lower", 0, 0},
	{"cache.evictions", "count", "lower", 0, 0},
	{"cache.lookup_ns", "ns", "lower", 0, 0},
	{"cache.insert_evict_ns", "ns", "lower", 0, 0},

	{"msu.read_amplification", "ratio", "lower", 0, 0},
	{"msu.packets", "count", "higher", 0, 0},
	{"msu.bytes", "MB", "higher", 0, 0},
	{"msu.pages_read", "count", "lower", 0, 0},
	{"msu.cache_page_hits", "count", "higher", 0, 0},
	{"msu.send_late_p50_ms", "ms", "lower", 0, 0},
	{"msu.send_late_p99_ms", "ms", "lower", 0, 0},
	{"msu.delivery_ns_per_pkt", "ns", "lower", 0, 0},
	{"msu.iosched_session_ms", "ms", "lower", 0, 0},

	{"client.late_p50_ms", "ms", "lower", 0, 0},
	{"client.late_p99_ms", "ms", "lower", 0, 0},
	{"client.late_p999_ms", "ms", "lower", 0, 0},
	{"client.late_max_ms", "ms", "lower", 0, 0},

	{"queue.spsc_ns_per_op", "ns", "lower", 0, 0},
	{"queue.pagepool_ns_per_op", "ns", "lower", 0, 0},
	{"ibtree.next_ns_per_pkt", "ns", "lower", 0, 0},
	{"ibtree.seek_us", "us", "lower", 0, 0},
	{"ibtree.append_ns_per_pkt", "ns", "lower", 0, 0},
	{"protocol.decode_ns", "ns", "lower", 0, 0},
	{"obs.counter_inc_ns", "ns", "lower", 0, 0},
	{"obs.hist_observe_ns", "ns", "lower", 0, 0},
	{"obs.snapshot_us", "us", "lower", 0, 0},
	{"net.udp_write_us", "us", "lower", 0, 0},

	{"coordinator.admitted", "count", "higher", 0, 0},
	{"coordinator.queued", "count", "lower", 0, 0},
	{"coordinator.rejected", "count", "lower", 0, 0},
	{"coordinator.requests", "count", "lower", 0, 0},
	{"coordinator.queue_wait_p50_ms", "ms", "lower", 0, 0},
	{"coordinator.admit_to_dispatch_ms", "ms", "lower", 0, 0},
	{"coordinator.play_us", "us", "lower", 0, 0},
	{"schedule.ledger_ns", "ns", "lower", 0, 0},
	{"wire.call_rtt_us", "us", "lower", 0, 0},
	{"wire.encode_ns", "ns", "lower", 0, 0},
	{"wire.ctl_bytes_per_play", "B", "lower", 0, 0},
	{"wire.ctl_msgs_per_play", "count", "lower", 0, 0},
	{"admindb.apply_us", "us", "lower", 0, 0},
	{"admindb.apply_mem_us", "us", "lower", 0, 0},

	{"msufs.writeblock_us", "us", "lower", 0, 0},
	{"msufs.readblock_us", "us", "lower", 0, 0},
	{"msufs.create_commit_us", "us", "lower", 0, 0},
	{"record.pkts_sent", "count", "higher", 0, 0},
	{"record.pkts_committed", "count", "higher", 0, 0},
	{"record.commit_ms", "ms", "lower", 0, 0},
	{"record.sink_drops", "count", "lower", 0, 0},
	{"record.send_late_max_ms", "ms", "lower", 0, 0},
	{"replicate.frame_mbps", "Mbit/s", "higher", 0, 0},

	// Median span durations from the trace; first_page_wait is
	// play.first_page's self time, the queue wait on the spindle.
	{"span.play.rpc_ms", "ms", "lower", 0, 0},
	{"span.play.first_page_ms", "ms", "lower", 0, 0},
	{"span.play.first_page_wait_ms", "ms", "lower", 0, 0},
	{"span.disk.read_ms", "ms", "lower", 0, 0},
	{"span.play.first_packet_ms", "ms", "lower", 0, 0},
	{"span.seek.rpc_ms", "ms", "lower", 0, 0},
	{"span.seek.first_packet_ms", "ms", "lower", 0, 0},
	{"span.record.commit_ms", "ms", "lower", 0, 0},

	// Harness health.
	{"gen.late_tail_ms", "ms", "lower", 0, 0},
	{"recv.sock_drops", "count", "lower", 0, 0},
	{"host.steal_pct", "%", "lower", 0, 0},
	{"trace.overhead_pct", "%", "lower", 0, 0},
	{"trace.startup_coverage_pct", "%", "higher", 0, 0},
}

func findDef(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// value is one measured metric: the number and how many samples stand
// behind it.
type value struct {
	v float64
	n int
}

// values collects a run's metrics by name.
type values map[string]value

func (vals values) set(name string, v float64, n int) { vals[name] = value{v, n} }

// quant sets name to the q-quantile of s.
func (vals values) quant(name string, s sample, q float64) {
	vals.set(name, quantile(s.sorted(), q), len(s))
}

// endToEndValues turns a run into the viewer-visible metrics.
func (res *result) endToEndValues() values {
	vs := res.vs
	vals := values{}
	vals.set("setup_s", median(res.setup), len(res.setup))
	vals.set("ontime50_pct", vs.ontime50(), int(vs.counted))
	vals.set("delivered_pct", vs.delivered(), int(vs.intact+vs.lost+vs.corrupt))
	vals.quant("startup_p50_ms", vs.startup, 0.5)
	vals.set("goodput_mbps", mbps(vs.goodBytes, res.win.length()), int(vs.windowPkts))
	return vals
}

// cpuPerPkt is the process's CPU time over the window, per packet the
// viewers received in it, in microseconds.
func (res *result) cpuPerPkt() float64 { return ratio(us(res.cpu), float64(res.vs.windowPkts)) }

// check runs the correctness checks and the harness-noise guard. A
// violated check fails the run: the numbers may describe a broken
// server or a broken harness, and neither is a measurement.
func (res *result) check() {
	vs := res.vs
	fail := func(format string, args ...any) { res.failures = append(res.failures, fmt.Sprintf(format, args...)) }

	// Every packet the MSU says it sent is one the viewers received or
	// one the receiver counted lost.
	sent := res.msu.obs.Counter("delivery_packets_total")
	if got := vs.intact + vs.gaps; got != sent {
		fail("receiver saw %d packets and %d gaps, the MSU sent %d", vs.intact, vs.gaps, sent)
	}
	if vs.corrupt != 0 {
		fail("%d datagrams failed their stamp or checksum", vs.corrupt)
	}
	if vs.dups != 0 {
		fail("%d duplicate datagrams", vs.dups)
	}
	if vs.unbound != 0 {
		fail("%d flows belong to no play", vs.unbound)
	}
	// Every ledger is back to zero once the streams are idle.
	for _, d := range res.status.Disks {
		if d.BandwidthUsed != 0 {
			fail("disk %v still has %v reserved", d.Disk, d.BandwidthUsed)
		}
	}
	for _, n := range res.status.Net {
		if n.Used != 0 {
			fail("NIC of %s still has %v reserved", n.MSU, n.Used)
		}
	}
	if res.recErr != nil {
		fail("recording: %v", res.recErr)
	}

	// The harness-noise guard: a run in which the bench itself dropped
	// packets or ran its schedule late measured the bench.
	if !res.dropsKnown {
		res.invalid = append(res.invalid, "cannot read /proc/net/udp: receive-socket drops unknown")
	} else if res.sockDrops > 0 {
		res.invalid = append(res.invalid, fmt.Sprintf("the bench's own sockets dropped %d datagrams", res.sockDrops))
	}
	late := 0
	for _, l := range res.genLate {
		if l > ms(genLateLimit) {
			late++
		}
	}
	if late*4 > len(res.genLate) {
		res.invalid = append(res.invalid, fmt.Sprintf("the generator issued %d of %d plays more than %v late", late, len(res.genLate), genLateLimit))
	}
}

// genLateLimit is how late the open-loop generator may issue a play.
// More than a quarter of the plays past it and the run is called invalid:
// a play is timed from when it was due, so a late one is one high start-up
// sample, and the median of the rest moves by less than its bound until
// that many are late. (At one play in ten, a host whose hypervisor takes
// 5 % of the CPU fails two runs in twenty of record_beside_play, which has
// 16 plays, with every number in its usual place.)
const genLateLimit = 20 * time.Millisecond

// attempted and failed are the run's operations: control commands
// (plays, seeks, quits, recordings) plus every packet the viewers and
// the record sinks were owed. A failed operation is a command that
// errored, a play that produced nothing, a recording that did not commit,
// and every packet that was owed and did not arrive, once, intact.
func (res *result) attempted() int64 {
	vs := res.vs
	return vs.plays + vs.seeks + vs.quits + int64(len(res.p.records)) +
		vs.intact + vs.lost + vs.corrupt + res.recSent
}

func (res *result) failed() int64 {
	vs := res.vs
	n := vs.playsFailed + vs.seeksFailed + vs.quitsFailed +
		vs.lost + vs.corrupt + vs.dups + (res.recSent - res.recIntact)
	if res.recErr != nil {
		n += int64(len(res.p.records))
	}
	return n
}

// correct reports whether the run's outputs checked out and the harness
// kept out of its own way.
func (res *result) correct() bool { return len(res.failures) == 0 && len(res.invalid) == 0 }
