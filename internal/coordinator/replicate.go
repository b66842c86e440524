package coordinator

import (
	"fmt"
	"sort"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// Demand-driven content replication (DESIGN.md §3h): the Coordinator's
// placement policy, the other half of internal/replicate's copy engine.
// A play that found a replica but no bandwidth, or a cache report
// showing a title hot under a loaded disk, plans a copy; a disk running
// low sheds a cold extra replica. The copy runs MSU-to-MSU; this file
// moves ledger reservations (one grant on both ends, so live admission
// and the copy never double-book, and a stream preempts it), decides the
// orders, aborts and drops, and journals the location only in
// replicateDone, after the destination has verified the replica.

// ReplicationConfig tunes the policy; the zero value is the defaults.
type ReplicationConfig struct {
	// MaxReplicas is the live copies of one title at which planning
	// stops (default 2); a holder that returns may leave a title above it.
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

// replicationFor reports whether a transfer of name is in flight.
func (c *engine) replicationFor(name string) *replication {
	for _, r := range c.replications {
		if r.content == name {
			return r
		}
	}
	return nil
}

// planReplicationLocked orders the transfer the admission decision
// planned for rec, copied for play group group (nil for none), if it
// planned one (planReplicaLocked holds the policy and takes the grant). A
// failed order ends the transfer.
func (c *engine) planReplicationLocked(rec *admindb.ContentRecord, group []*admindb.ContentRecord) {
	r := c.planReplicaLocked(rec, group)
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
	c.rpc(0, r.dstM.conn, wire.TypeReplicate, order, nil, func(_ time.Time, err error) {
		if err != nil {
			c.logf("replicate order %d (%q) to %s failed: %v", r.id, r.content, r.dstM.id, err)
			c.replicationFailed(r.id, "transfer order failed")
		}
	})
}

// maybeReplicateOnHeatLocked runs the heat trigger after a cache
// report: a title with hotPlayers concurrent players on a disk whose
// bandwidth ledger is mostly committed earns a second home.
func (c *engine) maybeReplicateOnHeatLocked(d *diskState) {
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
			c.planReplicationLocked(c.db.Content(name), nil)
		}
	}
}

// abortReplicationsLocked tears down every transfer match selects.
func (c *engine) abortReplicationsLocked(why string, match func(*replication) bool) {
	var victims []*replication
	for _, r := range c.replications {
		if match(r) {
			c.endReplicationLocked(r)
			victims = append(victims, r)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	c.abortedLocked(victims, why)
}

// abortedLocked publishes transfers already torn down: counted aborted
// with an event each, and an abort for every destination still alive to
// hear it (it removes the files it created; one that is not sweeps them
// when it next starts).
func (c *engine) abortedLocked(victims []*replication, why string) {
	for _, r := range victims {
		if r.dstM.alive {
			c.notify(r.dstM.conn, wire.TypeReplicateAbort, wire.ReplicateAbort{ID: r.id})
		}
		c.logf("replication %d (%q) aborted: %s", r.id, r.content, why)
		c.om.replAborted.Inc()
		c.event(obs.Event{Kind: obs.EvReplAbort, MSU: string(r.dstM.id), Disk: r.dstDisk,
			Content: r.content, Detail: why})
	}
}

// replicateDone commits a verified replica: release the transfer's
// reservations, count the copy against stored space, journal the new
// location, and release — a play queued "no bandwidth" on the sole
// holder runs again against the new replica. The MSU
// holds the replica pending our ack; an error answer (the content was
// deleted mid-copy) makes it remove the files again, so a location
// record is never committed for dead content.
func (c *engine) replicateDone(conn connID, req wire.ReplicateDone) error {
	m, err := c.msuOf(conn)
	if err != nil {
		return err
	}
	r := c.replications[req.ID]
	if r != nil {
		c.endReplicationLocked(r)
	}
	// A refused commit counts as an aborted transfer, and the
	// reservations freed above are a release either way.
	refuse := func(err error) error {
		c.om.replAborted.Inc()
		c.release()
		return err
	}
	if c.db.Content(req.Content) == nil || c.deleting(req.Content) {
		// Deleted while the copy ran: refuse the location; the answer
		// tells the destination to take the replica back out.
		return refuse(fmt.Errorf("%w: %q", core.ErrNoSuchContent, req.Content))
	}
	loc := core.DiskID{MSU: m.id, N: req.Disk}
	d := c.diskState(loc)
	if d == nil {
		return refuse(fmt.Errorf("%w: disk %d", core.ErrBadRequest, req.Disk))
	}
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
	c.release()
	return nil
}

// replicationFailed ends a transfer its destination gave up on (or never
// accepted), a release for the bandwidth that frees.
func (c *engine) replicationFailed(id uint64, reason string) {
	r := c.replications[id]
	if r == nil {
		return // already preempted, aborted, or committed
	}
	c.endReplicationLocked(r)
	c.logf("replication %d (%q) failed on %s: %s", id, r.content, r.dstM.id, reason)
	c.om.replAborted.Inc()
	c.event(obs.Event{Kind: obs.EvReplAbort, MSU: string(r.dstM.id), Disk: r.dstDisk,
		Content: r.content, Detail: reason})
	c.release()
}

// dropColdReplicaLocked runs the de-replication policy for one disk
// after its cache report: if the disk is low on space and holds a cold
// extra copy (no players here, no active streams here, another live
// replica elsewhere), shed it. At most one drop is ordered per report;
// it is a removal of that one replica, never a title's last live copy.
func (c *engine) dropColdReplicaLocked(m *msuState, diskIdx int) {
	if c.closed {
		return
	}
	d := m.disks[diskIdx]
	if float64(d.space.Available()) >= lowSpaceFrac*float64(d.space.Capacity()) {
		return // no space pressure
	}
next:
	for _, rec := range c.db.Contents() {
		name := rec.Info.Name
		if loc, held := rec.Locate(m.id); !held || loc.N != diskIdx {
			continue
		}
		if c.removals[name] != nil || c.replicationFor(name) != nil || len(c.liveReplicasLocked(rec)) < 2 {
			continue // a title being copied or removed, or its last live copy
		}
		if d.coverage[name].Players > 0 {
			continue // warm here: someone is watching this copy
		}
		for _, a := range c.active {
			if a.msu == m.id && a.content == name {
				continue next
			}
		}
		c.logf("de-replicating cold %q from %s disk %d", name, m.id, diskIdx)
		c.remove(&removal{why: "cold on a disk under 10 % free", names: []string{name},
			targets: []*replica{{name: name, size: rec.Info.Size, m: m, n: diskIdx}}})
		return
	}
}
