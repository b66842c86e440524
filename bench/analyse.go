package main

import (
	"sort"
	"time"
)

// span of the run the receiver-side numbers are taken over, in time
// since the receiver's epoch.
type window struct {
	from, to time.Duration
	// ontimeTo ends the stretch whose packets count for ontime*: a
	// workload with an overload step stops counting where the step
	// begins (the step prices capacity, not punctuality). Zero means to.
	ontimeTo time.Duration
	// tailFrom starts the capacity window, the last stretch of the run.
	tailFrom time.Duration
}

func (w window) length() time.Duration { return w.to - w.from }

// viewerStats is what the viewers of one run saw.
type viewerStats struct {
	intact    int64 // distinct verified packets received, whole run
	lost      int64 // sequence gaps inside flows, plus packets refused plays were owed
	gaps      int64 // the sequence gaps alone
	dups      int64 // datagrams repeating a sequence number already seen
	reordered int64 // distinct packets that arrived after a later one
	corrupt   int64 // datagrams that failed stamp or checksum
	unbound   int64 // flows no play accounts for
	flows     int64

	counted  int64 // packets past their flow's transient and scheduled inside the on-time stretch, lost ones included
	within5  int64
	within50 int64
	late     sample // lateness of the counted packets that arrived, ms

	windowPkts int64 // intact packets that arrived inside the window
	// goodBytes is the payload of those that went to steady (open-loop)
	// viewers: what the closed loop receives is a by-product of how fast
	// it cycles, which viewer.cycles_per_s reports. tailBytes is the part
	// of goodBytes inside the capacity window.
	goodBytes, tailBytes int64

	plays, playsFailed int64
	seeks, seeksFailed int64
	quits, quitsFailed int64
	quitAcksLost       int64  // quits whose acknowledgement lost the race with the connection closing
	firstErr           error  // the first control command that failed, for the report
	startup            sample // play due → first packet, ms (plays that ask for it)
	// slowestStart is the longest any play, overload step included,
	// waited for its first packet: how near the run came to a play that
	// ends with nothing received, which is a failed operation.
	slowestStart time.Duration
	admit        sample // Play request → PlayOK, ms
	seek         sample // Seek issued → first packet at or after the target, ms
	seekRPC      sample // Seek issued → ack, ms
}

// analyse turns the receiver's flows and the harness's plays into
// viewer statistics. Call it after receiver.close.
func analyse(r *receiver, plays []*play, w window) *viewerStats {
	if w.ontimeTo == 0 {
		w.ontimeTo = w.to
	}
	vs := &viewerStats{}
	for _, s := range r.socks {
		vs.corrupt += s.corrupt
		vs.unbound += s.unbound
		for _, f := range s.all {
			vs.flows++
			vs.addFlow(f, w)
		}
	}
	for _, p := range plays {
		vs.plays++
		switch {
		case p.err != nil:
			vs.playsFailed++
			vs.noteErr(p.err)
			vs.addOwed(p, w)
			continue
		case p.flow == nil || len(p.flow.recs) == 0:
			vs.playsFailed++ // admitted, yet no packet ever came
			vs.addOwed(p, w)
			continue
		}
		vs.admit.addDur(p.admitted - p.sent)
		vs.quits++
		if p.quitAckLost {
			vs.quitAcksLost++
		}
		if p.quitErr != nil {
			vs.quitsFailed++
			vs.noteErr(p.quitErr)
		}
		if !p.noStartup {
			vs.startup.addDur(p.flow.recs[0].at - p.due)
		}
		if d := p.flow.recs[0].at - p.due; d > vs.slowestStart {
			vs.slowestStart = d
		}
		if p.seekSent > 0 {
			vs.seeks++
			if p.seekHit == 0 {
				vs.seeksFailed++
			} else {
				vs.seek.addDur(p.seekHit - p.seekSent)
				vs.seekRPC.addDur(p.seekAcked - p.seekSent)
			}
		}
	}
	return vs
}

func (vs *viewerStats) noteErr(err error) {
	if vs.firstErr == nil {
		vs.firstErr = err
	}
}

// addOwed charges a play that produced nothing with every packet its
// title scheduled, past the transient, before the play would have ended.
func (vs *viewerStats) addOwed(p *play, w window) {
	end := p.end
	if end == 0 || end > w.to {
		end = w.to
	}
	iv := p.t.interval()
	for off := time.Duration(0); off < p.t.length && p.due+off < end; off += iv {
		vs.lost++
		if off >= startupTransient && p.due+off < w.ontimeTo {
			vs.counted++
		}
	}
}

// addFlow files one flow's packets. A flow whose play sought is two
// schedules — the MSU re-anchors delivery at the seek — so each side of
// the target is anchored, and checked for gaps, on its own.
func (vs *viewerStats) addFlow(f *flow, w window) {
	var target time.Duration
	if f.play != nil {
		target = f.play.seekTarget
	}
	steady := f.play != nil && f.play.first == nil
	if target == 0 {
		vs.addSegment(f.recs, w, steady)
		return
	}
	var before, after []pktRec
	for _, r := range f.recs {
		if r.off < target {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	vs.addSegment(before, w, steady)
	vs.addSegment(after, w, steady)
}

func (vs *viewerStats) addSegment(recs []pktRec, w window, steady bool) {
	if len(recs) == 0 {
		return
	}
	// First arrivals in arrival order: a repeat of a sequence number is a
	// duplicate, a first arrival below the highest seen is a reordering.
	seen := make(map[uint32]bool, len(recs))
	uniq := make([]pktRec, 0, len(recs))
	var maxSeq uint32
	for _, r := range recs {
		switch {
		case seen[r.seq]:
			vs.dups++
			continue
		case len(uniq) > 0 && r.seq < maxSeq:
			vs.reordered++
		default:
			maxSeq = r.seq
		}
		seen[r.seq] = true
		uniq = append(uniq, r)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i].seq < uniq[j].seq })

	// The flow's schedule is anchored at its least-delayed packet, so
	// lateness is never negative and needs no clock shared with the MSU.
	anchor := uniq[0].at - uniq[0].off
	firstOff := uniq[0].off
	for _, r := range uniq {
		if d := r.at - r.off; d < anchor {
			anchor = d
		}
	}
	counts := func(off time.Duration) bool {
		sched := anchor + off
		return off-firstOff >= startupTransient && sched >= w.from && sched < w.ontimeTo
	}
	for i, r := range uniq {
		vs.intact++
		if r.at >= w.from && r.at < w.to {
			vs.windowPkts++
			if steady {
				vs.goodBytes += int64(r.n)
				if r.at >= w.tailFrom {
					vs.tailBytes += int64(r.n)
				}
			}
		}
		if counts(r.off) {
			vs.counted++
			late := r.at - (anchor + r.off)
			vs.late.addDur(late)
			if late <= 5*time.Millisecond {
				vs.within5++
			}
			if late <= 50*time.Millisecond {
				vs.within50++
			}
		}
		if i == 0 {
			continue
		}
		// A gap in the sequence is loss; the missing packets' schedule
		// is interpolated between their neighbours.
		prev := uniq[i-1]
		gap := int64(r.seq-prev.seq) - 1
		for k := int64(1); k <= gap; k++ {
			vs.lost++
			vs.gaps++
			off := prev.off + time.Duration(k)*(r.off-prev.off)/time.Duration(gap+1)
			if counts(off) {
				vs.counted++
			}
		}
	}
}

func (vs *viewerStats) ontime50() float64 { return pct(float64(vs.within50), float64(vs.counted)) }
func (vs *viewerStats) ontime5() float64  { return pct(float64(vs.within5), float64(vs.counted)) }

// delivered is the share of packets the viewers were owed that arrived
// intact: 100 minus the loss percentage.
func (vs *viewerStats) delivered() float64 {
	return pct(float64(vs.intact), float64(vs.intact+vs.lost+vs.corrupt))
}

func (vs *viewerStats) lossPct() float64 {
	return pct(float64(vs.lost+vs.corrupt), float64(vs.intact+vs.lost+vs.corrupt))
}
