package main

import (
	"calliope/internal/obs"
)

// layerValues turns a traced run into the per-layer metrics. Counters
// are read from the outside — the bench's device wrapper, the Sim, the
// MSU's reports taken off the wire, StatusV2 and the event timeline —
// and the probes time calls into one layer's public functions on this
// workload's own inputs. untracedCPU is the last untraced run's
// cpu_us_per_pkt (0: none recorded), for trace.overhead_pct.
func (res *result) layerValues(h *harness, scratch string, untracedCPU float64) values {
	vs := res.vs
	vals := values{}
	for _, d := range perLayer {
		vals.set(d.name, 0, 0) // a layer the workload does not touch reads zero
	}

	// What this workload's viewers see and the others' do not.
	vals.set("viewer.ontime5_pct", vs.ontime5(), int(vs.counted))
	vals.set("viewer.loss_pct", vs.lossPct(), int(vs.intact+vs.lost+vs.corrupt))
	vals.set("viewer.cpu_us_per_pkt", res.cpuPerPkt(), int(vs.windowPkts))
	vals.quant("viewer.startup_p99_ms", vs.startup, 0.99)
	vals.quant("viewer.admit_p50_ms", vs.admit, 0.5)
	vals.quant("viewer.admit_p99_ms", vs.admit, 0.99)
	vals.quant("viewer.seek_p50_ms", vs.seek, 0.5)
	vals.quant("viewer.seek_p99_ms", vs.seek, 0.99)
	vals.set("viewer.cycles_per_s", ratio(float64(res.cycles), res.win.length().Seconds()), int(res.cycles))
	vals.set("viewer.capacity_mbps", mbps(vs.tailBytes, res.p.tailFor()), int(vs.windowPkts))
	vals.set("viewer.record_loss_pct", pct(float64(res.recSent-res.recIntact), float64(res.recSent)), int(res.recSent))

	// blockdev: the bench's own wrapper and the Sim beneath it.
	dev := res.dev
	readTimes, readBusy, writeBusy := h.dev.timings()
	vals.set("blockdev.reads", float64(dev.Reads), 1)
	vals.set("blockdev.read_mb", float64(dev.BytesRead)/1e6, int(dev.Reads))
	vals.set("blockdev.read_busy_s", readBusy.Seconds(), len(readTimes))
	vals.set("blockdev.read_p50_ms", quantile(readTimes, 0.5), len(readTimes))
	vals.set("blockdev.read_p99_ms", quantile(readTimes, 0.99), len(readTimes))
	vals.set("blockdev.writes", float64(dev.Writes), 1)
	vals.set("blockdev.write_mb", float64(dev.BytesWritten)/1e6, int(dev.Writes))
	vals.set("blockdev.write_busy_s", writeBusy.Seconds(), int(dev.Writes))
	vals.set("blockdev.seek_mb", float64(dev.simSeekBytes)/1e6, int(dev.simOps))
	// Utilisation over the capacity window.
	vals.set("blockdev.util_pct", pct(res.devTail.busy.Seconds(), res.p.tailFor().Seconds()), int(res.devTail.Reads+res.devTail.Writes))

	// iosched and cache: the MSU's last report, taken off the wire.
	io, cs := res.msu.io, res.msu.cache
	vals.set("iosched.requests", float64(io.Requests), res.msu.n)
	vals.set("iosched.rounds", float64(io.Rounds), res.msu.n)
	vals.set("iosched.round_size", io.RoundSize(), int(io.Rounds))
	vals.set("iosched.coalesced_pct", pct(float64(io.Coalesced), float64(io.Requests)), int(io.Requests))
	vals.set("iosched.queue_peak", float64(io.QueuePeak), res.msu.n)
	vals.set("iosched.late_pct", pct(float64(io.Late), float64(io.Requests)), int(io.Requests))
	vals.set("iosched.max_late_ms", float64(io.MaxLateMs), int(io.Requests))
	vals.set("cache.hit_pct", 100*cs.HitRatio(), int(cs.Lookups()))
	vals.set("cache.lookups", float64(cs.Lookups()), res.msu.n)
	vals.set("cache.inserts", float64(cs.Inserts), res.msu.n)
	vals.set("cache.evictions", float64(cs.Evictions), res.msu.n)

	// msu: its cumulative counters, and the sender-side lateness
	// histogram. The gap to client.late_* is loopback plus receiver.
	snap := res.msu.obs
	pagesRead := snap.Counter("disk_pages_read_total")
	vals.set("msu.packets", float64(snap.Counter("delivery_packets_total")), res.msu.n)
	vals.set("msu.bytes", float64(snap.Counter("delivery_bytes_total"))/1e6, res.msu.n)
	vals.set("msu.pages_read", float64(pagesRead), res.msu.n)
	vals.set("msu.cache_page_hits", float64(snap.Counter("cache_page_hits_total")), res.msu.n)
	vals.set("msu.read_amplification", ratio(float64(pagesRead), float64(pagesNeeded(h.recv))), int(pagesRead))
	if hist, ok := snap.Hists["delivery_lateness_seconds"]; ok {
		vals.set("msu.send_late_p50_ms", histQuantile(hist.Bounds, hist.Counts, 0.5), int(hist.Count))
		vals.set("msu.send_late_p99_ms", histQuantile(hist.Bounds, hist.Counts, 0.99), int(hist.Count))
	}
	late := vs.late.sorted()
	vals.set("client.late_p50_ms", quantile(late, 0.5), len(late))
	vals.set("client.late_p99_ms", quantile(late, 0.99), len(late))
	vals.set("client.late_p999_ms", quantile(late, 0.999), len(late))
	vals.set("client.late_max_ms", quantile(late, 1), len(late))

	// coordinator: its registry as StatusV2 reports it, and the event
	// timeline's admit → dispatch stamps.
	cso := res.status.Snapshot
	vals.set("coordinator.admitted", float64(cso.Counter("admission_admitted_total")), 1)
	vals.set("coordinator.queued", float64(cso.Counter("admission_queued_total")), 1)
	vals.set("coordinator.rejected", float64(cso.Counter("admission_rejected_total")), 1)
	vals.set("coordinator.requests", float64(cso.Counter("requests_total")), 1)
	if hist, ok := cso.Hists["queue_wait_seconds"]; ok {
		vals.set("coordinator.queue_wait_p50_ms", histQuantile(hist.Bounds, hist.Counts, 0.5), int(hist.Count))
	}
	a2d := admitToDispatch(res.events)
	vals.quant("coordinator.admit_to_dispatch_ms", a2d, 0.5)
	vals.set("wire.ctl_bytes_per_play", ratio(float64(res.ctlBytes), float64(vs.plays)), int(vs.plays))
	vals.set("wire.ctl_msgs_per_play", ratio(float64(res.ctlMsgs), float64(vs.plays)), int(vs.plays))

	vals.set("record.pkts_sent", float64(res.recSent), len(res.p.records))
	vals.set("record.pkts_committed", float64(res.recIntact), len(res.p.records))
	vals.quant("record.commit_ms", res.recCommit, 0.5)
	vals.set("record.sink_drops", float64(res.recSinkDrops), len(res.p.records))
	vals.quant("record.send_late_max_ms", res.recSendLate, 1)

	// Spans.
	byName, coverage := h.tr.summarise()
	for metric, name := range map[string]string{
		"span.play.rpc_ms":          "play.rpc",
		"span.play.first_page_ms":   "play.first_page",
		"span.disk.read_ms":         "disk.read",
		"span.play.first_packet_ms": "play.first_packet",
		"span.seek.rpc_ms":          "seek.rpc",
		"span.seek.first_packet_ms": "seek.first_packet",
		"span.record.commit_ms":     "record.commit",
	} {
		vals.set(metric, byName[name].P50ms, byName[name].N)
	}
	vals.set("span.play.first_page_wait_ms", byName["play.first_page"].SelfP50ms, byName["play.first_page"].N)

	// Harness health.
	_, genTail := tail(res.genLate.sorted())
	vals.set("gen.late_tail_ms", genTail, len(res.genLate))
	vals.set("recv.sock_drops", float64(res.sockDrops), 1)
	vals.set("host.steal_pct", res.stealPct, 1)
	vals.set("trace.startup_coverage_pct", coverage["play"], byName["play"].N)
	if untracedCPU > 0 {
		vals.set("trace.overhead_pct", pct(res.cpuPerPkt()-untracedCPU, untracedCPU), 1)
	}

	runProbes(res.p, scratch, vals)
	return vals
}

// pagesNeeded is how many distinct pages the viewers' packets came
// from: the reads the device would have served had every page been read
// exactly once. A stored packet is its payload plus a 1-byte channel tag
// and a 16-byte record header; a page holds blockSize minus its 8-byte
// header of them.
func pagesNeeded(r *receiver) int64 {
	type pageKey struct {
		title uint32
		page  int64
	}
	pages := make(map[pageKey]struct{})
	for _, s := range r.socks {
		for _, f := range s.all {
			if f.play == nil {
				continue
			}
			stored := int64(f.play.t.pktSize + 17)
			for _, rec := range f.recs {
				pages[pageKey{f.title, int64(rec.seq) * stored / (blockSize - 8)}] = struct{}{}
			}
		}
	}
	return int64(len(pages))
}

// admitToDispatch pairs each group's admit event with its first
// dispatch event on the Coordinator's timeline.
func admitToDispatch(events []obs.Event) sample {
	admitted := make(map[uint64]obs.Event)
	var out sample
	for _, ev := range events {
		switch ev.Kind {
		case obs.EvAdmit:
			admitted[ev.Group] = ev
		case obs.EvDispatch:
			if a, ok := admitted[ev.Group]; ok {
				out.addDur(ev.Time.Sub(a.Time))
				delete(admitted, ev.Group)
			}
		}
	}
	return out
}
