package coordinator

import (
	"fmt"
	"sort"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// Demand-driven content replication: the Coordinator's placement policy
// (the other half of internal/replicate's copy engine). Two signals
// plan a copy — a play that found a replica but no bandwidth (queue
// pressure), and a cache report showing a title hot under a loaded disk
// — and one signal reclaims space: a cold extra replica on a disk
// running low. The transfer itself is ordered over the wire
// (wire.Replicate) and runs MSU-to-MSU; this file only moves ledger
// reservations and, at commit time, the journaled location record.
//
// Invariants:
//   - A planned transfer holds real ledger claims on both ends (source
//     disk bandwidth + NIC, destination disk bandwidth + space), taken
//     as one grant by the admission core (admission.go), so live
//     admission and the copy can never double-book.
//   - The location record is journaled only inside replicateDone —
//     after the destination has fsynced and verified — so a crash or
//     abort anywhere earlier leaves no trace of the replica.
//   - A stream that needs the bandwidth preempts the copy (the paper's
//     rule that background work uses idle capacity only).

// ReplicationConfig tunes the policy; the zero value is the defaults.
type ReplicationConfig struct {
	// MaxReplicas bounds copies of one title, primary included
	// (default 2).
	MaxReplicas int
	// Rate caps one transfer's bandwidth; 0 derives 2× the content
	// type's delivery rate. The actual grant also never exceeds the
	// idle bandwidth on either end.
	Rate units.BitRate
}

// Policy constants, defaults and floors.
const (
	// hotPlayers is how many concurrent players of one title on one disk
	// mark it hot.
	hotPlayers         = 2
	defaultMaxReplicas = 2
	// lowSpaceFrac is the free-space fraction under which a disk sheds
	// cold extra replicas.
	lowSpaceFrac = 0.10
	// minReplRate is the slowest transfer worth starting; below this
	// the plan waits for idle bandwidth instead.
	minReplRate = 64 * units.Kbps
	// hotDiskNum/hotDiskDen: the heat trigger also wants the disk's
	// bandwidth ledger at least 3/4 committed — a hot title on an idle
	// disk needs no second home.
	hotDiskNum, hotDiskDen = 3, 4
)

// replKeyBase offsets transfer grant keys away from stream IDs.
const replKeyBase = uint64(1) << 62

// replication is one in-flight transfer's Coordinator-side state. Its
// grant holds the claims on both ends.
type replication struct {
	id      uint64
	content string
	rate    int64
	srcM    *msuState
	dstM    *msuState
	dstDisk int
	grant   grant
}

// replAbort is a deferred abort notification, sent after c.mu drops.
type replAbort struct {
	peer *wire.Peer
	id   uint64
}

func sendAborts(aborts []replAbort) {
	for _, a := range aborts {
		a.peer.Notify(wire.TypeReplicateAbort, wire.ReplicateAbort{ID: a.id}) //nolint:errcheck // the MSU may be dying; its own teardown cleans up
	}
}

// maxReplicas resolves the config default.
func (c *Coordinator) maxReplicas() int {
	if n := c.cfg.Replication.MaxReplicas; n > 0 {
		return n
	}
	return defaultMaxReplicas
}

// replicationFor reports whether a transfer of name is in flight.
// Callers hold c.mu.
func (c *Coordinator) replicationFor(name string) *replication {
	for _, r := range c.replications {
		if r.content == name {
			return r
		}
	}
	return nil
}

// planReplicationLocked orders the transfer the admission core planned
// for rec, if it planned one (planReplicaLocked holds the policy and
// takes the grant). The order goes out in the background. Callers hold
// c.mu.
func (c *Coordinator) planReplicationLocked(rec *admindb.ContentRecord) {
	r := c.planReplicaLocked(rec)
	if r == nil {
		return
	}
	rate := units.BitRate(r.rate)
	order := wire.Replicate{
		ID: r.id, Content: r.content, Type: rec.Info.Type, Disk: r.dstDisk,
		Source: r.srcM.transferAddr, Rate: rate,
		Size: rec.Info.Size, Length: rec.Info.Length, HasFast: rec.Info.HasFast,
	}
	c.logf("replicating %q: %s → %s disk %d at %v", r.content, r.srcM.id, r.dstM.id, r.dstDisk, rate)
	c.om.replPlanned.Inc()
	c.event(obs.Event{Kind: obs.EvReplPlan, MSU: string(r.dstM.id), Disk: r.dstDisk, Content: r.content,
		Detail: fmt.Sprintf("from %s at %v", r.srcM.id, rate)})
	c.wg.Add(1) // under c.mu: Close sets closed before waiting
	go func() {
		defer c.wg.Done()
		if err := r.dstM.peer.CallTimeout(wire.TypeReplicate, order, nil, msuRPCTimeout); err != nil {
			c.logf("replicate order %d (%q) to %s failed: %v", r.id, r.content, r.dstM.id, err)
			c.replicationFailed(r.id, "transfer order failed")
		}
	}()
}

// maybeReplicateOnHeatLocked runs the heat trigger after a cache
// report: a title with hotPlayers concurrent players on a disk whose
// bandwidth ledger is mostly committed earns a second home. Callers
// hold c.mu.
func (c *Coordinator) maybeReplicateOnHeatLocked(d *diskState) {
	if d.bw.Reserved()*hotDiskDen < d.bw.Capacity()*hotDiskNum {
		return // the disk is not under bandwidth pressure
	}
	names := make([]string, 0, len(d.coverage))
	for name := range d.coverage {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if d.coverage[name].Players >= hotPlayers {
			c.planReplicationLocked(c.db.Content(name))
		}
	}
}

// abortReplicationsLocked tears down every transfer match selects and
// returns the deferred abort notifications. Callers hold c.mu.
func (c *Coordinator) abortReplicationsLocked(why string, match func(*replication) bool) []replAbort {
	var victims []*replication
	for _, r := range c.replications {
		if match(r) {
			c.endReplicationLocked(r)
			victims = append(victims, r)
		}
	}
	return c.abortNoticesLocked(victims, why)
}

// abortNoticesLocked publishes transfers the admission core has already
// torn down: counted aborted with an event each, and an abort for every
// destination still alive to hear it (it removes the files it created;
// one that is not sweeps them when it next starts). Callers hold c.mu.
func (c *Coordinator) abortNoticesLocked(victims []*replication, why string) []replAbort {
	var aborts []replAbort
	for _, r := range victims {
		if r.dstM.alive {
			aborts = append(aborts, replAbort{peer: r.dstM.peer, id: r.id})
		}
		c.logf("replication %d (%q) aborted: %s", r.id, r.content, why)
		c.om.replAborted.Inc()
		c.event(obs.Event{Kind: obs.EvReplAbort, MSU: string(r.dstM.id), Disk: r.dstDisk,
			Content: r.content, Detail: why})
	}
	return aborts
}

// replicateDone commits a verified replica: release the transfer's
// reservations, count the copy against stored space, journal the new
// location, and wake the pending queue — a play queued "no bandwidth"
// on the sole holder re-evaluates against the new replica. The MSU
// holds the replica pending our ack; an error answer (the content was
// deleted mid-copy) makes it remove the files again, so a location
// record is never committed for dead content.
func (ctx *connCtx) replicateDone(req wire.ReplicateDone) error {
	c := ctx.c
	ctx.mu.Lock()
	m := ctx.msu
	ctx.mu.Unlock()
	if m == nil {
		return fmt.Errorf("%w: not an MSU connection", core.ErrBadRequest)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.replications[req.ID]
	if r != nil {
		c.endReplicationLocked(r)
	}
	// A refused commit counts as an aborted transfer, and the
	// reservations freed above wake the queue either way.
	refuse := func(err error) error {
		c.om.replAborted.Inc()
		c.signalRelease()
		return err
	}
	if c.db.Content(req.Content) == nil {
		// Deleted while the copy ran: refuse the location; the answer
		// tells the destination to take the replica back out.
		return refuse(fmt.Errorf("%w: %q", core.ErrNoSuchContent, req.Content))
	}
	d := c.diskState(core.DiskID{MSU: m.id, N: req.Disk})
	if d == nil {
		return refuse(fmt.Errorf("%w: disk %d", core.ErrBadRequest, req.Disk))
	}
	loc := core.DiskID{MSU: m.id, N: req.Disk}
	if err := c.apply(admindb.SetLocation(req.Content, admindb.Location{MSU: m.id, Disk: req.Disk})); err != nil {
		// Not journaled ⇒ not committed: reject, so the destination
		// removes the replica again.
		return refuse(err)
	}
	// The replica now occupies real blocks: stored content is standing
	// space (mirrors recordingDone). With live transfer state the
	// reserved blocks convert exactly; an orphan commit (Coordinator
	// restarted mid-copy, or state lost to preemption racing the
	// commit) adds conservatively, corrected by the MSU's next
	// re-registration.
	d.space.AddStanding(blocksFor(req.Size, d.blockSize)) //nolint:errcheck
	c.om.replDone.Inc()
	c.om.replBytes.Add(req.Bytes)
	c.event(obs.Event{Kind: obs.EvReplCommit, MSU: string(m.id), Disk: req.Disk,
		Content: req.Content, Detail: fmt.Sprintf("%d bytes", req.Bytes)})
	if r == nil {
		c.logf("replica of %q on %v committed across a restart (transfer %d unknown)", req.Content, loc, req.ID)
	} else {
		c.logf("replica of %q on %v committed (%d bytes)", req.Content, loc, req.Bytes)
	}
	c.signalRelease()
	return nil
}

// replicateFailed handles the destination's abandonment notice.
func (ctx *connCtx) replicateFailed(req wire.ReplicateFailed) {
	ctx.c.replicationFailed(req.ID, req.Reason)
}

// replicationFailed ends a transfer its destination gave up on (or never
// accepted) and wakes the queue for the bandwidth that frees.
func (c *Coordinator) replicationFailed(id uint64, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.replications[id]
	if r == nil {
		return // already preempted, aborted, or committed
	}
	c.endReplicationLocked(r)
	c.logf("replication %d (%q) failed on %s: %s", id, r.content, r.dstM.id, reason)
	c.om.replAborted.Inc()
	c.event(obs.Event{Kind: obs.EvReplAbort, MSU: string(r.dstM.id), Disk: r.dstDisk,
		Content: r.content, Detail: reason})
	c.signalRelease()
}

// dropColdReplicaLocked runs the de-replication policy for one disk
// after its cache report: if the disk is low on space and holds a cold
// extra copy (no players here, no active streams here, other replicas
// elsewhere, not the primary), shed it. At most one drop is planned per
// report; the delete RPC runs in the background. Callers hold c.mu.
func (c *Coordinator) dropColdReplicaLocked(m *msuState, diskIdx int) {
	if c.closed {
		return
	}
	d := m.disks[diskIdx]
	if float64(d.space.Available()) >= lowSpaceFrac*float64(d.space.Capacity()) {
		return // no space pressure
	}
	for _, rec := range c.db.Contents() {
		name := rec.Info.Name
		loc, held := rec.Locate(m.id)
		if !held || loc.N != diskIdx || len(rec.Locations) < 2 {
			continue
		}
		if rec.Info.Disk.MSU == m.id {
			continue // never shed the primary
		}
		if c.dereplicating[name] || c.replicationFor(name) != nil {
			continue
		}
		if cov, ok := d.coverage[name]; ok && cov.Players > 0 {
			continue // warm here: someone is watching this copy
		}
		inUse := false
		for _, a := range c.active {
			if a.msu == m.id && a.content == name {
				inUse = true
				break
			}
		}
		if inUse {
			continue
		}
		c.dereplicating[name] = true
		c.logf("de-replicating cold %q from %s disk %d", name, m.id, diskIdx)
		c.wg.Add(1) // under c.mu: Close sets closed before waiting
		go c.executeDrop(m.peer, m, rec, name, diskIdx, blocksFor(rec.Info.Size, d.blockSize))
		return
	}
}

// executeDrop deletes one cold replica on its MSU and, on success,
// drops the journaled location and returns the blocks to the free pool.
func (c *Coordinator) executeDrop(peer *wire.Peer, m *msuState, rec *admindb.ContentRecord, name string, diskIdx int, blocks int64) {
	defer c.wg.Done()
	err := peer.CallTimeout(wire.TypeDeleteContent, wire.DeleteContent{Content: name}, nil, msuRPCTimeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.dereplicating, name)
	if err != nil {
		// In use after all, or the MSU died; the replica stays.
		c.logf("de-replicating %q from %s: %v", name, m.id, err)
		return
	}
	if c.db.Content(name) != rec || c.msus[m.id] != m {
		return // deleted or re-registered meanwhile; reconciliation owns it
	}
	c.apply(admindb.DropLocation(name, m.id)) //nolint:errcheck // counted and logged inside; the catalog, live and restarted alike, still lists the replica and the next msuHello sweep reconciles it
	if d := c.diskState(core.DiskID{MSU: m.id, N: diskIdx}); d != nil {
		adjustCapacityLocked(d.space, blocks)
	}
	c.om.replDropped.Inc()
	c.signalRelease()
}
