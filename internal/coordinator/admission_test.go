package coordinator

// The admission core without sockets: plan / commit / rollback /
// release called directly on a Coordinator that never listens and whose
// MSUs have no peers.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/schedule"
	"calliope/internal/units"
	"calliope/internal/wire"
)

const kbps = int64(units.Kbps)

// pureCoordinator is a Coordinator that is never started.
func pureCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c, err := New(Config{Types: paperTypes()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func ledger(t *testing.T, capacity int64) *schedule.Ledger {
	t.Helper()
	l, err := schedule.NewLedger(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// addMSU registers a peerless MSU whose disks each have diskBW of
// bandwidth and the given free blocks of 64 KB; the NIC carries netBW.
func addMSU(t *testing.T, c *Coordinator, id core.MSUID, netBW, diskBW int64, free ...int64) *msuState {
	t.Helper()
	m := &msuState{id: id, alive: true, transferAddr: "transfer:" + string(id), net: ledger(t, netBW)}
	for _, f := range free {
		m.disks = append(m.disks, &diskState{blockSize: 64 * 1024, bw: ledger(t, diskBW), space: ledger(t, f)})
	}
	c.msus[id] = m
	return m
}

// addContent declares an mpeg1-sized title (1500 Kbps unless typ says
// otherwise) held on disk 0 of each listed MSU, the first one primary.
func addContent(c *Coordinator, name, typ string, holders ...core.MSUID) *admindb.ContentRecord {
	rec := admindb.ContentRecord{Info: core.ContentInfo{Name: name, Type: typ, Size: 640 * units.KB}}
	for _, id := range holders {
		rec.Locations = append(rec.Locations, admindb.Location{MSU: id})
	}
	if len(holders) > 0 {
		rec.Info.Disk = core.DiskID{MSU: holders[0]}
	}
	if err := c.db.Apply(admindb.PutContent(rec)); err != nil {
		panic(err)
	}
	return c.db.Content(name)
}

// issueIDs takes one group ID and n stream IDs off the counters.
func issueIDs(c *Coordinator, n uint64) (group uint64, firstStream core.StreamID) {
	ids := c.db.Counters()
	firstStream = core.StreamID(ids.NextStream + 1)
	ids.NextGroup++
	ids.NextStream += n
	if err := c.db.Apply(admindb.SetCounters(ids)); err != nil {
		panic(err)
	}
	return ids.NextGroup, firstStream
}

func typeRate(c *Coordinator, name string) units.BitRate {
	t, _ := c.db.Type(name)
	return t.Bandwidth
}

// playDemands builds one play stream per part, the way play does.
func playDemands(c *Coordinator, parts ...*admindb.ContentRecord) []demand {
	group, id := issueIDs(c, uint64(len(parts)))
	var out []demand
	for _, part := range parts {
		out = append(out, demand{a: &activeStream{
			id: id, group: group, content: part.Info.Name, typ: part.Info.Type,
			spec: core.StreamSpec{Stream: id, Group: group, Content: part.Info.Name,
				Rate: typeRate(c, part.Info.Type)},
		}})
		id++
	}
	return out
}

// recordDemand builds one mpeg1 record stream needing the given blocks.
func recordDemand(c *Coordinator, name string, blocks int64) []demand {
	group, id := issueIDs(c, 1)
	return []demand{{
		a: &activeStream{id: id, group: group, content: name, typ: "mpeg1", record: true,
			spec: core.StreamSpec{Stream: id, Group: group, Content: name, Record: true,
				Rate: typeRate(c, "mpeg1")}},
		blocks: func(int) int64 { return blocks },
	}}
}

// ledgerSums adds up, per ledger, what the live grants claim.
func ledgerSums(c *Coordinator) map[*schedule.Ledger]int64 {
	sums := make(map[*schedule.Ledger]int64)
	for _, a := range c.active {
		for _, cl := range a.grant.claims {
			sums[cl.ledger] += cl.amount
		}
	}
	for _, r := range c.replications {
		for _, cl := range r.grant.claims {
			sums[cl.ledger] += cl.amount
		}
	}
	return sums
}

// checkConservation asserts every ledger's Reserved() equals the sum of
// the live grants' claims on it.
func checkConservation(t *testing.T, c *Coordinator, ledgers []*schedule.Ledger, when string) {
	t.Helper()
	sums := ledgerSums(c)
	for i, l := range ledgers {
		if l.Reserved() != sums[l] {
			t.Fatalf("%s: ledger %d holds %d, live grants claim %d", when, i, l.Reserved(), sums[l])
		}
	}
}

func msuLedgers(ms ...*msuState) []*schedule.Ledger {
	var out []*schedule.Ledger
	for _, m := range ms {
		out = append(out, m.net)
		for _, d := range m.disks {
			out = append(out, d.bw, d.space)
		}
	}
	return out
}

func TestPlanStep(t *testing.T) {
	mpeg := 1500 * kbps
	cases := []struct {
		name string
		run  func(t *testing.T, c *Coordinator)
	}{
		{"cold play claims NIC and disk", func(t *testing.T, c *Coordinator) {
			m := addMSU(t, c, "m1", 10*mpeg, 10*mpeg, 100)
			rec := addContent(c, "movie", "mpeg1", "m1")
			if p := c.planLocked(playDemands(c, rec), nil); p != nil {
				t.Fatal("placed with no candidates")
			}
			p := c.planLocked(playDemands(c, rec), c.playCandidatesLocked([]*admindb.ContentRecord{rec}))
			if p == nil || p.m != m || m.net.Reserved() != mpeg || m.disks[0].bw.Reserved() != mpeg {
				t.Fatalf("placement %+v, net %d disk %d", p, m.net.Reserved(), m.disks[0].bw.Reserved())
			}
			if !c.commitLocked(p) || len(c.active) != 1 {
				t.Fatalf("commit refused a standing placement (%d active)", len(c.active))
			}
		}},
		{"warm play claims the NIC only", func(t *testing.T, c *Coordinator) {
			m := addMSU(t, c, "m1", 10*mpeg, mpeg, 100)
			rec := addContent(c, "movie", "mpeg1", "m1")
			m.disks[0].coverage = map[string]wire.ContentCoverage{"movie": {Name: "movie", CachedPages: 10, TotalPages: 10}}
			for i := 0; i < 3; i++ { // three plays on a one-slot disk
				if p := c.planLocked(playDemands(c, rec), c.playCandidatesLocked([]*admindb.ContentRecord{rec})); p == nil {
					t.Fatalf("warm play %d refused", i)
				}
			}
			if m.net.Reserved() != 3*mpeg || m.disks[0].bw.Reserved() != 0 {
				t.Fatalf("net %d disk %d", m.net.Reserved(), m.disks[0].bw.Reserved())
			}
		}},
		{"composite group lands whole on one MSU or not at all", func(t *testing.T, c *Coordinator) {
			video, audio := 3000*kbps, 128*kbps
			small := addMSU(t, c, "m1", video+audio-1, 10*mpeg, 100) // the NIC fits the video, not both
			big := addMSU(t, c, "m2", video+audio, 10*mpeg, 100)
			parts := []*admindb.ContentRecord{addContent(c, "talk/v", "rtp-video", "m1", "m2"), addContent(c, "talk/a", "vat-audio", "m1", "m2")}
			p := c.planLocked(playDemands(c, parts...), c.playCandidatesLocked(parts))
			if p == nil || p.m != big || len(p.streams) != 2 {
				t.Fatalf("placement %+v, want both parts on m2", p)
			}
			if small.net.Reserved() != 0 || small.disks[0].bw.Reserved() != 0 {
				t.Fatalf("refused candidate kept a claim: net %d disk %d", small.net.Reserved(), small.disks[0].bw.Reserved())
			}
			if p2 := c.planLocked(playDemands(c, parts...), c.playCandidatesLocked(parts)); p2 != nil {
				t.Fatalf("second group placed on %s with no NIC left", p2.m.id)
			}
			checkConservation(t, c, msuLedgers(small, big), "after the refusal")
		}},
		{"record needs bandwidth and space on one disk", func(t *testing.T, c *Coordinator) {
			m := addMSU(t, c, "m1", 10*mpeg, mpeg, 10, 60) // disk 0 is short of space
			if p := c.planLocked(recordDemand(c, "big", 61), c.recordCandidatesLocked()); p != nil {
				t.Fatal("recording placed with no disk that large")
			}
			checkConservation(t, c, msuLedgers(m), "after the refusal")
			p := c.planLocked(recordDemand(c, "clip", 58), c.recordCandidatesLocked())
			if p == nil || p.specs[0].Disk != 1 || p.specs[0].Reserved != 58*64*units.KB {
				t.Fatalf("placement %+v", p)
			}
			d := m.disks[1]
			if d.bw.Reserved() != mpeg || d.space.Reserved() != 58 || m.net.Reserved() != 0 {
				t.Fatalf("bw %d space %d net %d", d.bw.Reserved(), d.space.Reserved(), m.net.Reserved())
			}
			// Disk 1 has two blocks left but no slot; disk 0 has the slot
			// but not the blocks. No single disk has both.
			if p := c.planLocked(recordDemand(c, "clip2", 11), c.recordCandidatesLocked()); p != nil {
				t.Fatal("recording placed with bandwidth on one disk and space on another")
			}
			if p := c.planLocked(recordDemand(c, "clip3", 2), c.recordCandidatesLocked()); p == nil || p.specs[0].Disk != 0 {
				t.Fatalf("small recording: %+v, want disk 0", p)
			}
			// A commit turns the estimate into standing space; the slot stays.
			p.streams[0].grant.drop(d.space)
			if d.space.Reserved() != 0 || d.bw.Reserved() != mpeg {
				t.Fatalf("after drop: bw %d space %d", d.bw.Reserved(), d.space.Reserved())
			}
		}},
		{"play falls over to the second replica", func(t *testing.T, c *Coordinator) {
			addMSU(t, c, "m1", mpeg, mpeg, 100)
			m2 := addMSU(t, c, "m2", mpeg, mpeg, 100)
			rec := addContent(c, "movie", "mpeg1", "m1", "m2")
			cands := c.playCandidatesLocked([]*admindb.ContentRecord{rec})
			if len(cands) != 2 || cands[0].m.id != "m1" {
				t.Fatalf("candidates %+v, want the primary first", cands)
			}
			first := c.planLocked(playDemands(c, rec), cands)
			second := c.planLocked(playDemands(c, rec), cands)
			if first == nil || first.m.id != "m1" || second == nil || second.m != m2 {
				t.Fatalf("first %+v second %+v", first, second)
			}
			if third := c.planLocked(playDemands(c, rec), cands); third != nil {
				t.Fatal("third play placed with both replicas full")
			}
		}},
		{"a play preempts a copy only when that admits it", func(t *testing.T, c *Coordinator) {
			m1 := addMSU(t, c, "m1", 2*mpeg, 2*mpeg, 100)
			m2 := addMSU(t, c, "m2", 2*mpeg, 2*mpeg, 100)
			rec := addContent(c, "movie", "mpeg1", "m1")
			cands := c.playCandidatesLocked([]*admindb.ContentRecord{rec})
			if c.planLocked(playDemands(c, rec), cands) == nil {
				t.Fatal("first play refused")
			}
			r := c.planReplicaLocked(rec)
			if r == nil || r.rate != mpeg || r.dstM != m2 || m2.disks[0].space.Reserved() != 10 {
				t.Fatalf("replica plan %+v", r)
			}
			// The copy holds m1's last slot; a play takes it back.
			p := c.planLocked(playDemands(c, rec), cands)
			if p == nil || len(p.preempted) != 1 || p.preempted[0] != r || len(c.replications) != 0 {
				t.Fatalf("placement %+v, %d transfers left", p, len(c.replications))
			}
			checkConservation(t, c, msuLedgers(m1, m2), "after the preemption")
			// m1 is now saturated by plays. A new copy finds no idle
			// bandwidth, and tearing one down would not admit a third play.
			if c.planReplicaLocked(rec) != nil {
				t.Fatal("copy planned with no idle bandwidth")
			}
			c.rollbackLocked(p)
			r = c.planReplicaLocked(rec)
			if r == nil {
				t.Fatal("copy refused with a free slot")
			}
			two := playDemands(c, rec, rec) // needs two slots; the copy frees one
			if p := c.planLocked(two, []candidate{{m: m1, disks: []int{0, 0}}}); p != nil {
				t.Fatal("group placed in half the room it needs")
			}
			if c.replications[r.id] != r || m1.net.Reserved() != 2*mpeg {
				t.Fatalf("useless preemption tore the copy down (net %d)", m1.net.Reserved())
			}
			checkConservation(t, c, msuLedgers(m1, m2), "after the refused preemption")
		}},
		{"a recording preempts a copy for bandwidth and space", func(t *testing.T, c *Coordinator) {
			// A recording is a real-time stream too, so it outranks a
			// background copy the same way a play does.
			m1 := addMSU(t, c, "m1", 2*mpeg, 2*mpeg, 100)
			m2 := addMSU(t, c, "m2", 2*mpeg, mpeg, 12) // the copy's landing disk: one slot, 12 blocks
			rec := addContent(c, "movie", "mpeg1", "m1")
			r := c.planReplicaLocked(rec)
			if r == nil || r.dstM != m2 || m2.disks[0].bw.Reserved() != mpeg || m2.disks[0].space.Reserved() != 10 {
				t.Fatalf("replica plan %+v", r)
			}
			// Nothing the copy holds would make room for 13 blocks.
			if p := c.planLocked(recordDemand(c, "huge", 13), []candidate{{m: m2}}); p != nil || c.replications[r.id] != r {
				t.Fatalf("placement %+v, copy alive: %v", p, c.replications[r.id] == r)
			}
			checkConservation(t, c, msuLedgers(m1, m2), "after the refused preemption")
			p := c.planLocked(recordDemand(c, "clip", 5), []candidate{{m: m2}})
			if p == nil || len(p.preempted) != 1 || p.preempted[0] != r || len(c.replications) != 0 {
				t.Fatalf("placement %+v, %d transfers left", p, len(c.replications))
			}
			if m1.net.Reserved() != 0 || m2.disks[0].bw.Reserved() != mpeg || m2.disks[0].space.Reserved() != 5 {
				t.Fatalf("m1 net %d, m2 bw %d space %d", m1.net.Reserved(), m2.disks[0].bw.Reserved(), m2.disks[0].space.Reserved())
			}
			checkConservation(t, c, msuLedgers(m1, m2), "after the preemption")
		}},
		{"rollback frees and wakes the queue; commit sees a lost MSU", func(t *testing.T, c *Coordinator) {
			m := addMSU(t, c, "m1", 10*mpeg, 10*mpeg, 100)
			rec := addContent(c, "movie", "mpeg1", "m1")
			cands := c.playCandidatesLocked([]*admindb.ContentRecord{rec})
			p := c.planLocked(playDemands(c, rec), cands)
			woke := c.releases
			c.rollbackLocked(p)
			if c.releases == woke {
				t.Fatal("rollback freed a slot without waking the queue")
			}
			if len(c.active) != 0 || m.net.Reserved() != 0 || m.disks[0].bw.Reserved() != 0 {
				t.Fatalf("rollback left %d active, net %d", len(c.active), m.net.Reserved())
			}
			// msuDown releases the streams of a placement in dispatch:
			// commit reports it, and a late rollback frees nothing twice.
			p = c.planLocked(playDemands(c, rec), cands)
			c.releaseStreamLocked(p.streams[0])
			if c.commitLocked(p) {
				t.Fatal("commit accepted a placement whose stream is gone")
			}
			woke = c.releases
			c.rollbackLocked(p)
			if c.releases != woke {
				t.Fatal("rollback signalled with nothing to free")
			}
			checkConservation(t, c, msuLedgers(m), "at the end")
		}},
		{"a stream re-placed on a fresh registration is not the old placement's", func(t *testing.T, c *Coordinator) {
			// The MSU dies mid-dispatch and re-registers under the same id;
			// the re-dispatcher places the same stream there. The original
			// dispatch then fails and rolls back: it must leave the new
			// grant alone.
			addMSU(t, c, "m1", 10*mpeg, 10*mpeg, 100)
			rec := addContent(c, "movie", "mpeg1", "m1")
			dm := playDemands(c, rec)
			old := c.planLocked(dm, c.playCandidatesLocked([]*admindb.ContentRecord{rec}))
			c.releaseStreamLocked(old.streams[0]) // msuDown
			fresh := addMSU(t, c, "m1", 10*mpeg, 10*mpeg, 100)
			again := c.planLocked(dm, c.playCandidatesLocked([]*admindb.ContentRecord{rec}))
			if again == nil || again.m != fresh {
				t.Fatalf("re-placement %+v", again)
			}
			c.rollbackLocked(old)
			if c.commitLocked(old) || !c.commitLocked(again) || fresh.net.Reserved() != mpeg {
				t.Fatalf("old rollback touched the new grant: old standing %v, new standing %v, net %d",
					c.commitLocked(old), c.commitLocked(again), fresh.net.Reserved())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, pureCoordinator(t)) })
	}
}

// Two equal MSUs: a recording's home must not depend on map iteration
// order (it used to range over c.msus).
func TestRecordPlacementDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		c := pureCoordinator(t)
		for _, id := range []core.MSUID{"m4", "m2", "m3", "m1"} {
			addMSU(t, c, id, 10*1500*kbps, 10*1500*kbps, 100)
		}
		p := c.planLocked(recordDemand(c, "clip", 10), c.recordCandidatesLocked())
		if p == nil || p.m.id != "m1" {
			t.Fatalf("coordinator %d: recording landed on %+v, want m1", i, p)
		}
	}
}

// TestLedgerConservationRandomized drives a seeded random sequence of
// plan / rollback / release / replica / msu-down steps through the
// admission core and asserts after every step that each ledger's
// Reserved() equals the sum of the live grants, and 0 once everything
// is released; then seeded random input sequences through the whole
// core (walkInputs).
func TestLedgerConservationRandomized(t *testing.T) {
	const steps = 20000
	rng := rand.New(rand.NewSource(13))
	c := pureCoordinator(t)
	c.cfg.Replication.MaxReplicas = 3
	ids := []core.MSUID{"m1", "m2", "m3"}
	// Checked after every step: the live MSUs' ledgers, and those of the
	// last few downed ones, which must read 0 and stay there.
	live := make(map[core.MSUID][]*schedule.Ledger)
	var retired []*schedule.Ledger
	up := func(id core.MSUID) {
		retired = append(retired, live[id]...)
		if len(retired) > 50 {
			retired = retired[len(retired)-50:]
		}
		live[id] = msuLedgers(addMSU(t, c, id, 8*1500*kbps, 4*1500*kbps, 400, 400))
	}
	all := func() []*schedule.Ledger {
		out := append([]*schedule.Ledger(nil), retired...)
		for _, id := range ids {
			out = append(out, live[id]...)
		}
		return out
	}
	for _, id := range ids {
		up(id)
	}
	var titles []*admindb.ContentRecord
	for i := 0; i < 6; i++ {
		typ := []string{"mpeg1", "rtp-video", "vat-audio"}[i%3]
		titles = append(titles, addContent(c, fmt.Sprintf("t%d", i), typ, ids[i%3], ids[(i+1)%3]))
	}
	var placed []*placement
	pick := func() *placement {
		if len(placed) == 0 {
			return nil
		}
		i := rng.Intn(len(placed))
		p := placed[i]
		placed = append(placed[:i], placed[i+1:]...)
		return p
	}
	start := time.Now()
	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(10); {
		case op < 3:
			what = "plan play"
			parts := []*admindb.ContentRecord{titles[rng.Intn(len(titles))]}
			if rng.Intn(3) == 0 {
				parts = append(parts, titles[rng.Intn(len(titles))])
			}
			if p := c.planLocked(playDemands(c, parts...), c.playCandidatesLocked(parts)); p != nil {
				placed = append(placed, p)
			}
		case op < 4:
			what = "plan record"
			if p := c.planLocked(recordDemand(c, fmt.Sprintf("rec%d", step), int64(1+rng.Intn(300))), c.recordCandidatesLocked()); p != nil {
				placed = append(placed, p)
			}
		case op < 5:
			what = "rollback"
			if p := pick(); p != nil {
				c.rollbackLocked(p)
			}
		case op < 7:
			what = "release"
			if p := pick(); p != nil {
				for _, a := range p.streams {
					if c.active[a.id] == a {
						c.releaseStreamLocked(a)
					}
				}
			}
		case op < 8:
			what = "plan replica"
			c.planReplicaLocked(titles[rng.Intn(len(titles))])
		case op < 9:
			what = "end replica"
			var oldest *replication
			for _, r := range c.replications {
				if oldest == nil || r.id < oldest.id {
					oldest = r
				}
			}
			if oldest != nil {
				c.endReplicationLocked(oldest)
			}
		default:
			what = "msu down and back"
			m := c.msus[ids[rng.Intn(len(ids))]]
			m.alive = false
			for _, a := range c.active {
				if a.msu == m.id {
					c.releaseStreamLocked(a)
				}
			}
			for _, r := range c.replications {
				if r.srcM == m || r.dstM == m {
					c.endReplicationLocked(r)
				}
			}
			for _, l := range msuLedgers(m) {
				if l.Reserved() != 0 {
					t.Fatalf("step %d: downed %s keeps %d reserved", step, m.id, l.Reserved())
				}
			}
			up(m.id)
		}
		checkConservation(t, c, all(), fmt.Sprintf("step %d (%s)", step, what))
	}
	for _, a := range c.active {
		c.releaseStreamLocked(a)
	}
	for _, r := range c.replications {
		c.endReplicationLocked(r)
	}
	for i, l := range all() {
		if l.Reserved() != 0 {
			t.Fatalf("ledger %d ends at %d, want 0", i, l.Reserved())
		}
	}
	if len(c.replications) != 0 {
		t.Fatalf("%d transfers left after everything ended", len(c.replications))
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%d steps took %v, want under 2s", steps, took)
	}
	// The same conservation, driven through the core's inputs instead of
	// its admission functions (walkInputs, core_test.go), and a walk
	// repeats bit for bit from its seed.
	if a, b := walkInputs(t, 13, 4000), walkInputs(t, 13, 4000); a != b {
		t.Fatal("two walks from one seed decided differently")
	}
}
