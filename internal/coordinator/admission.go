package coordinator

import (
	"sort"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/schedule"
	"calliope/internal/units"
)

// The admission decision (DESIGN.md §3, "Admission path") behind play,
// record, re-dispatch and replica planning. It reads and writes the
// ledgers, c.active and c.replications and nothing else; what it decides
// beyond the grant (copies preempted, a replica planned) it returns, and
// scheduler.go / replicate.go notify, journal and emit events.

// claim is an amount of one ledger's resource.
type claim struct {
	ledger *schedule.Ledger
	amount int64
}

// grant is every ledger claim one stream or transfer holds, all under
// one key (the stream ID, or replKeyBase + the transfer ID). It is taken
// whole or not at all, and it remembers the exact ledgers it reserved
// against, so releasing stays correct after the MSU's registration
// state has moved on.
type grant struct {
	key    uint64
	claims []claim
}

// takeGrant reserves every claim under key, or none: a refusal leaves
// each ledger as it was.
func takeGrant(key uint64, claims ...claim) (grant, bool) {
	for i, cl := range claims {
		if cl.ledger.Reserve(key, cl.amount) != nil {
			for _, held := range claims[:i] {
				held.ledger.Release(key) //nolint:errcheck // reserved just above
			}
			return grant{}, false
		}
	}
	return grant{key: key, claims: claims}, true
}

// release returns every claim. A second release is harmless: the
// ledgers no longer know the key.
func (g grant) release() {
	for _, cl := range g.claims {
		cl.ledger.Release(g.key) //nolint:errcheck // released at most once per ledger
	}
}

// drop returns only the claim held on l (a committed recording's space
// estimate, which becomes standing space) and keeps the rest.
func (g *grant) drop(l *schedule.Ledger) {
	for i, cl := range g.claims {
		if cl.ledger == l {
			l.Release(g.key) //nolint:errcheck // held until now
			g.claims = append(g.claims[:i:i], g.claims[i+1:]...)
			return
		}
	}
}

// demand is one stream asking for a home. The stream's spec gives its
// rate; plan fills in where it landed. blocks is set for recordings
// only: the disk blocks to set aside, by the target disk's block size.
type demand struct {
	a      *activeStream
	blocks func(blockSize int) int64
}

// candidate is an MSU a group could land on. disks pins each demand to
// the disk holding its replica (plays); nil lets plan take any disk of
// the MSU with room (recordings).
type candidate struct {
	m     *msuState
	disks []int
}

// placement is a planned group: the MSU chosen and the streams, each
// holding its grant and entered in c.active, with their specs frozen.
// preempted lists the copies torn down to make the room.
type placement struct {
	m         *msuState
	streams   []*activeStream
	specs     []core.StreamSpec
	preempted []*replication
}

// blocksFor converts a byte size into whole disk blocks.
func blocksFor(size units.ByteSize, blockSize int) int64 {
	return (int64(size) + int64(blockSize) - 1) / int64(blockSize)
}

// liveMSUsLocked lists the live MSUs in id order, so every placement
// that scans the cluster for a disk with room (a recording's home, a
// replica's destination) decides the same way on every run.
func (c *engine) liveMSUsLocked() []*msuState {
	out := make([]*msuState, 0, len(c.msus))
	for _, m := range c.msus {
		if m.alive {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// playCandidatesLocked lists every live MSU holding a replica of every
// part, the first part's primary location first, then MSU id order.
// Plan tries each in turn, so a play refused bandwidth on the primary
// falls over to any other replica — including one the replication
// policy just created.
func (c *engine) playCandidatesLocked(parts []*admindb.ContentRecord) []candidate {
	var out []candidate
next:
	for _, home := range parts[0].Holders() {
		m := c.msus[home.MSU]
		if m == nil || !m.alive {
			continue
		}
		disks := make([]int, len(parts))
		for i, p := range parts {
			loc, ok := p.Locate(home.MSU)
			if !ok || loc.N < 0 || loc.N >= len(m.disks) {
				continue next
			}
			disks[i] = loc.N
		}
		out = append(out, candidate{m: m, disks: disks})
	}
	return out
}

// recordCandidatesLocked lists every live MSU, in id order: a recording
// may land on any disk with bandwidth and space (§2.2).
func (c *engine) recordCandidatesLocked() []candidate {
	var out []candidate
	for _, m := range c.liveMSUsLocked() {
		out = append(out, candidate{m: m})
	}
	return out
}

// claimsOn lists what one stream must hold to run from (or onto) disk d
// of m. A play claims NIC bandwidth always and a disk duty-cycle slot
// only when its content is not warmly cached on d (§2.2 admission, made
// cache-aware). A recording is inbound traffic: it never touches the
// delivery ledger, and claims disk bandwidth plus space.
func (m *msuState) claimsOn(d *diskState, dm demand) []claim {
	rate := int64(dm.a.spec.Rate)
	switch {
	case dm.a.record:
		return []claim{{d.bw, rate}, {d.space, dm.blocks(d.blockSize)}}
	case d.warm(dm.a.content):
		return []claim{{m.net, rate}}
	default:
		return []claim{{m.net, rate}, {d.bw, rate}}
	}
}

// placeLocked tries to put the whole group on one candidate: every
// stream's grant is taken, or none is. On success the streams are
// entered in c.active at their new home.
func (c *engine) placeLocked(demands []demand, cand candidate) *placement {
	m := cand.m
	grants := make([]grant, len(demands))
	disks := make([]int, len(demands))
	for i, dm := range demands {
		first, last := 0, len(m.disks)-1
		if cand.disks != nil {
			first, last = cand.disks[i], cand.disks[i]
		}
		granted := false
		for n := first; n <= last && !granted; n++ {
			grants[i], granted = takeGrant(uint64(dm.a.id), m.claimsOn(m.disks[n], dm)...)
			disks[i] = n
		}
		if !granted {
			for _, g := range grants[:i] {
				g.release()
			}
			return nil
		}
	}
	p := &placement{m: m}
	for i, dm := range demands {
		a := dm.a
		a.msu, a.disk, a.spec.Disk, a.grant = m.id, disks[i], disks[i], grants[i]
		if a.record {
			bs := m.disks[a.disk].blockSize
			a.spec.Reserved = units.ByteSize(dm.blocks(bs) * int64(bs))
		}
		c.active[a.id] = a
		p.streams = append(p.streams, a)
		p.specs = append(p.specs, a.spec)
	}
	return p
}

// planLocked is the admission decision: it places the group on the
// first candidate with room for all of it, taking every ledger claim,
// or returns nil with every ledger as it found it. With no room it tries
// preemption — streams outrank background copies — candidate by
// candidate, setting aside the transfers touching that MSU. A preempted
// copy loses its sunk work, so they are torn down only when that really
// admits the group; otherwise a queued play on a saturated MSU would
// cancel, over and over, the very copy planned to relieve it.
func (c *engine) planLocked(demands []demand, cands []candidate) *placement {
	for _, cand := range cands {
		if p := c.placeLocked(demands, cand); p != nil {
			return p
		}
	}
	for _, cand := range cands {
		var victims []*replication
		for _, r := range c.replications {
			if r.srcM == cand.m || r.dstM == cand.m {
				victims = append(victims, r)
			}
		}
		if len(victims) == 0 {
			continue
		}
		// Newest first: the order the destinations hear of it.
		sort.Slice(victims, func(i, j int) bool { return victims[i].id > victims[j].id })
		for _, r := range victims {
			r.grant.release()
		}
		if p := c.placeLocked(demands, cand); p != nil {
			for _, r := range victims {
				c.endReplicationLocked(r)
			}
			p.preempted = victims
			return p
		}
		for _, r := range victims {
			// Nothing else moved since the release, so this cannot fail.
			r.grant, _ = takeGrant(r.grant.key, r.grant.claims...)
		}
	}
	return nil
}

// standingLocked reports whether stream a still stands where placement
// p put it. Its MSU's msuDown may have released it meanwhile, and a
// re-dispatch may since have placed it elsewhere — even on a fresh
// registration under the same MSU id, so it is the registration that is
// compared, not the id.
func (c *engine) standingLocked(p *placement, a *activeStream) bool {
	return c.active[a.id] == a && c.msus[a.msu] == p.m
}

// commitLocked is the verdict after a successful re-dispatch: whether
// every stream of the placement still stands. When it does not, the MSU
// died after answering, or a stream ended, its release is done, and the
// start counts as failed.
func (c *engine) commitLocked(p *placement) bool {
	for _, a := range p.streams {
		if !c.standingLocked(p, a) {
			return false
		}
	}
	return true
}

// rollbackLocked undoes a placement that was not, or could not be,
// dispatched: it releases every stream still standing, a release for
// the pending queue if that frees anything.
func (c *engine) rollbackLocked(p *placement) {
	freed := false
	for _, a := range p.streams {
		if c.standingLocked(p, a) {
			c.releaseStreamLocked(a)
			freed = true
		}
	}
	if freed {
		c.release()
	}
}

// releaseStreamLocked frees a stream's grant and forgets the stream.
// The caller records the release.
func (c *engine) releaseStreamLocked(a *activeStream) {
	a.grant.release()
	delete(c.active, a.id)
}

// endReplicationLocked frees a transfer's grant and forgets the
// transfer.
func (c *engine) endReplicationLocked(r *replication) {
	r.grant.release()
	delete(c.replications, r.id)
}

// planReplicaLocked decides whether content deserves another replica
// right now and, if so, takes the transfer's four claims — source disk
// bandwidth and NIC, destination disk bandwidth and space — as one
// grant at the idle-bandwidth rate. It returns the planned transfer for
// the caller to order, or nil.
func (c *engine) planReplicaLocked(rec *admindb.ContentRecord) *replication {
	if c.closed || rec == nil {
		return nil
	}
	t, ok := c.db.Type(rec.Info.Type)
	if !ok || t.Composite() {
		return nil // composite parents replicate through their children
	}
	if len(rec.Locations) >= c.maxReplicas() || c.replicationFor(rec.Info.Name) != nil {
		return nil
	}
	srcM, srcDisk, ok := c.pickSourceLocked(rec)
	if !ok {
		return nil
	}
	srcD := srcM.disks[srcDisk]
	dstM, dstDisk, ok := c.pickDestinationLocked(rec, srcD.blockSize)
	if !ok {
		return nil
	}
	dstD := dstM.disks[dstDisk]
	// The configured (or type-derived) rate, clipped to the idle
	// bandwidth on every ledger it must ride.
	rate := int64(c.cfg.Replication.Rate)
	if rate <= 0 {
		rate = 2 * int64(t.Bandwidth)
	}
	for _, avail := range []int64{srcD.bw.Available(), srcM.net.Available(), dstD.bw.Available()} {
		if avail < rate {
			rate = avail
		}
	}
	if rate < int64(minReplRate) {
		return nil // not enough idle bandwidth to be worth it
	}
	c.nextRepl++
	g, ok := takeGrant(replKeyBase+c.nextRepl,
		claim{srcD.bw, rate}, claim{srcM.net, rate},
		claim{dstD.bw, rate}, claim{dstD.space, blocksFor(rec.Info.Size, dstD.blockSize)})
	if !ok {
		return nil
	}
	r := &replication{
		id: c.nextRepl, content: rec.Info.Name, rate: rate,
		srcM: srcM, dstM: dstM, dstDisk: dstDisk, grant: g,
	}
	c.replications[r.id] = r
	return r
}

// pickSourceLocked finds a live holder able to serve transfers, and the
// disk its replica is on, primary first then MSU id order.
func (c *engine) pickSourceLocked(rec *admindb.ContentRecord) (*msuState, int, bool) {
	for _, loc := range rec.Holders() {
		m := c.msus[loc.MSU]
		if m != nil && m.alive && m.transferAddr != "" && loc.N >= 0 && loc.N < len(m.disks) {
			return m, loc.N, true
		}
	}
	return nil, 0, false
}

// pickDestinationLocked finds the best MSU not yet holding rec: alive,
// a disk with the same block size (IB-tree pages are block-sized, so
// replicas cannot change geometry) and the most free blocks, with room
// for the whole item.
func (c *engine) pickDestinationLocked(rec *admindb.ContentRecord, blockSize int) (*msuState, int, bool) {
	var bestM *msuState
	bestDisk, bestFree := -1, int64(-1)
	for _, m := range c.liveMSUsLocked() {
		if _, holds := rec.Locate(m.id); holds {
			continue
		}
		for di, d := range m.disks {
			free := d.space.Available()
			if d.blockSize == blockSize && free >= blocksFor(rec.Info.Size, blockSize) && free > bestFree {
				bestM, bestDisk, bestFree = m, di, free
			}
		}
	}
	return bestM, bestDisk, bestM != nil
}
