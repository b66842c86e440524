package coordinator

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/schedule"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// reregisterGrace bounds how long a re-registering MSU's hello waits
// for the previous connection to be seen breaking.
const reregisterGrace = time.Second

// hello opens a client session, authenticating the user against the
// customer database.
func (c *engine) hello(conn connID, req wire.Hello) (*wire.Welcome, error) {
	// One protocol generation: the peer must speak ours exactly (a hello
	// without the field reads as 0), and the error names both sides so the
	// operator knows which end to upgrade.
	if req.ProtoVersion != wire.ProtoVersion {
		return nil, fmt.Errorf("%w: client speaks protocol v%d, coordinator speaks v%d; upgrade the older side",
			core.ErrBadRequest, req.ProtoVersion, wire.ProtoVersion)
	}
	if c.closed {
		return nil, core.ErrSessionClosed
	}
	role := RoleAdmin // open installation
	if len(c.cfg.Users) > 0 {
		var known bool
		role, known = c.cfg.Users[req.User]
		if !known {
			return nil, fmt.Errorf("%w: unknown user %q", core.ErrPermission, req.User)
		}
	}
	ids := c.db.Counters()
	ids.NextSession++
	if err := c.apply(admindb.SetCounters(ids)); err != nil {
		return nil, err
	}
	s := &session{id: core.SessionID(ids.NextSession), user: req.User, role: role, conn: conn, ports: make(map[string]*core.DisplayPort)}
	c.sessions[s.id] = s
	c.bound[conn] = s
	c.logf("session %d opened for %q", s.id, req.User)
	return &wire.Welcome{Session: s.id}, nil
}

// connDown handles a broken connection: a client's session is dropped
// (§2.1: "the Coordinator deallocates its local representation of the
// ports"), an MSU is failed (§2.2).
func (c *engine) connDown(now time.Time, conn connID) {
	switch b := c.bound[conn].(type) {
	case *session:
		delete(c.sessions, b.id)
		c.logf("session %d dropped (%d ports deallocated)", b.id, len(b.ports))
	case *msuState:
		c.msuDown(now, b)
	}
	delete(c.bound, conn)
}

// sessionID is the session conn said hello as, 0 before it did.
func (c *engine) sessionID(conn connID) core.SessionID {
	if s, ok := c.bound[conn].(*session); ok {
		return s.id
	}
	return 0
}

// liveSession fetches a session that has not been dropped.
func (c *engine) liveSession(id core.SessionID) (*session, error) {
	if s := c.sessions[id]; s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w: say hello first", core.ErrNoSuchSession)
}

// requireAdmin checks conn's session holds administrative privileges.
func (c *engine) requireAdmin(conn connID) error {
	s, err := c.liveSession(c.sessionID(conn))
	if err != nil {
		return err
	}
	if s.role != RoleAdmin {
		return fmt.Errorf("%w: user %q is not an administrator", core.ErrPermission, s.user)
	}
	return nil
}

// msuOf fetches the MSU registration conn said hello as.
func (c *engine) msuOf(conn connID) (*msuState, error) {
	if m, ok := c.bound[conn].(*msuState); ok {
		return m, nil
	}
	return nil, fmt.Errorf("%w: not an MSU connection", core.ErrBadRequest)
}

func (c *engine) listContent() *wire.ContentList {
	out := &wire.ContentList{}
	for _, rec := range c.db.Contents() {
		info := rec.Info
		info.Replicas = rec.Holders()
		out.Items = append(out.Items, info)
	}
	return out
}

// addType installs a content type (administrative).
func (c *engine) addType(conn connID, t core.ContentType) error {
	if err := c.requireAdmin(conn); err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if _, ok := c.db.Type(t.Name); ok {
		return fmt.Errorf("%w: type %q", core.ErrDuplicateName, t.Name)
	}
	for _, comp := range t.Components {
		if _, ok := c.db.Type(comp); !ok {
			return fmt.Errorf("%w: component type %q", core.ErrNoSuchType, comp)
		}
	}
	return c.apply(admindb.PutType(t))
}

// doomed is one replica an administrative delete removes.
type doomed struct {
	conn connID
	name string
	size units.ByteSize
	disk core.DiskID
}

// deleteContent removes an item that is not being played or recorded:
// every replica on every MSU, one DeleteContent at a time, then the
// catalog entries. owner hears the outcome.
func (c *engine) deleteContent(owner uint64, conn connID, name string) {
	if targets, err := c.doomedReplicas(conn, name); err != nil {
		c.answer(owner, nil, err)
	} else {
		c.deleteNext(owner, targets, 0)
	}
}

func (c *engine) doomedReplicas(conn connID, name string) ([]doomed, error) {
	if err := c.requireAdmin(conn); err != nil {
		return nil, err
	}
	rec := c.db.Content(name)
	if rec == nil {
		return nil, fmt.Errorf("%w: %q", core.ErrNoSuchContent, name)
	}
	for _, a := range c.active {
		if a.content == name {
			return nil, fmt.Errorf("%w: %q", core.ErrContentInUse, name)
		}
	}
	names := append([]string{name}, rec.Info.Children...)
	// An in-flight copy of anything being deleted dies first: the
	// destination removes its unpublished files when told to abort, and
	// a commit racing the delete is refused in replicateDone.
	c.abortReplicationsLocked("content deleted", func(r *replication) bool {
		for _, n := range names {
			if r.content == n {
				return true
			}
		}
		return false
	})
	// Every replica on every MSU must go; any holder being down fails
	// the delete (the returning MSU would re-declare the item).
	var targets []doomed
	for _, n := range names {
		r := c.db.Content(n)
		if r == nil {
			continue
		}
		for _, loc := range r.Locations {
			m := c.msus[loc.MSU]
			if m == nil || !m.alive {
				return nil, fmt.Errorf("%w: holding %q", core.ErrMSUUnavailable, n)
			}
			targets = append(targets, doomed{conn: m.conn, name: n, size: r.Info.Size, disk: loc.DiskID()})
		}
	}
	return targets, nil
}

// deleteNext orders target i's DeleteContent, or, with every replica
// gone, drops the catalog entries and returns the space.
func (c *engine) deleteNext(owner uint64, targets []doomed, i int) {
	if i < len(targets) {
		t := targets[i]
		c.rpc(owner, t.conn, wire.TypeDeleteContent, wire.DeleteContent{Content: t.name}, nil, func(_ time.Time, err error) {
			if err != nil {
				c.answer(owner, nil, fmt.Errorf("coordinator: deleting %q on MSU: %w", t.name, err))
				return
			}
			c.deleteNext(owner, targets, i+1)
		})
		return
	}
	var muts []admindb.Mutation
	for _, t := range targets {
		muts = append(muts, admindb.DeleteContent(t.name))
	}
	if err := c.apply(muts...); err != nil {
		// The MSUs already unlinked the files; the catalog entries stay
		// until the next msuHello stale sweep reconciles them.
		c.answer(owner, nil, err)
		return
	}
	for _, t := range targets {
		// Return the replica's disk space to the free pool.
		if d := c.diskState(t.disk); d != nil {
			adjustCapacityLocked(d.space, blocksFor(t.size, d.blockSize))
		}
	}
	c.release()
	c.answer(owner, nil, nil)
}

// cacheReport records one disk's advertised cache heat and lets the
// pending queue look again: a play that was waiting on a disk bandwidth
// slot may now admit without one.
func (c *engine) cacheReport(conn connID, req wire.CacheReport) {
	m, err := c.msuOf(conn)
	if err != nil || c.msus[m.id] != m || req.Disk < 0 || req.Disk >= len(m.disks) {
		return
	}
	if req.Seq <= m.lastReport {
		// Overtaken on the wire by a report taken after it: its cumulative
		// figures are older than what is already merged, and differencing
		// against them would read as a counter reset.
		return
	}
	m.lastReport = req.Seq
	d := m.disks[req.Disk]
	d.cache = req.Stats
	d.io = req.IO
	d.coverage = make(map[string]wire.ContentCoverage, len(req.Coverage))
	for _, cov := range req.Coverage {
		d.coverage[cov.Name] = cov
	}
	// The report carries the MSU's cumulative metrics snapshot; merge
	// only the movement since the last one so a re-sent report cannot
	// double-count (Sub's restart rule absorbs an MSU whose counters
	// reset).
	if req.Obs != nil {
		delta := req.Obs.Sub(m.lastObs)
		m.lastObs = req.Obs.Clone()
		if !delta.Empty() {
			c.obs.Merge(delta)
		}
	}
	if lookups := req.Stats.Hits + req.Stats.Misses; lookups > 0 {
		pct := int(req.Stats.Hits * 100 / lookups)
		if was := d.lastHitPct; was < 0 || pct-was >= cacheRatioStep || was-pct >= cacheRatioStep {
			d.lastHitPct = pct
			c.event(obs.Event{Kind: obs.EvCacheRatio, MSU: string(m.id), Disk: req.Disk,
				Detail: fmt.Sprintf("hit ratio %d%%", pct)})
		}
	}
	// The report doubles as the replication policy's sensor input: hot
	// titles under a loaded disk earn a second home, and a disk low on
	// space sheds a cold extra copy.
	c.maybeReplicateOnHeatLocked(d)
	c.dropColdReplicaLocked(m, req.Disk)
	c.release()
}

// cacheRatioStep is the hit-percentage movement that earns a disk a new
// cache-ratio event on the timeline.
const cacheRatioStep = 10

// msuHello (re)registers an MSU. A name whose old connection has not
// yet been seen to break waits, up to reregisterGrace, for its msu-down
// (a restarting MSU typically races ahead of the EOF from its dying
// socket); if that connection is genuinely alive, the name stays taken.
func (c *engine) msuHello(now time.Time, owner uint64, conn connID, req wire.MSUHello) {
	c.request(now, &waiting{owner: owner, conn: conn, req: &req, deadline: now.Add(reregisterGrace)})
}

// admitMSU registers an MSU: it rebuilds the MSU's disk ledgers and
// merges its content declarations into the table of contents.
func (c *engine) admitMSU(w *waiting, req *wire.MSUHello) error {
	if req.ID == "" {
		return fmt.Errorf("%w: MSU has no id", core.ErrBadRequest)
	}
	if req.ProtoVersion != wire.ProtoVersion {
		return fmt.Errorf("%w: MSU %q speaks protocol v%d, coordinator speaks v%d; upgrade the older side",
			core.ErrBadRequest, req.ID, req.ProtoVersion, wire.ProtoVersion)
	}
	prev := c.msus[req.ID]
	if prev != nil && prev.alive {
		err := fmt.Errorf("%w: MSU %q already registered", core.ErrDuplicateName, req.ID)
		if prev.conn != w.conn {
			return busyError{err}
		}
		return err
	}
	m := &msuState{id: req.ID, conn: w.conn, alive: true, transferAddr: req.TransferAddr}
	if prev != nil {
		// Carry the metrics baseline across the reconnect so the MSU's
		// next cumulative report is diffed against what was already
		// merged, not re-merged from zero.
		m.lastObs = prev.lastObs
	}
	declared := make(map[string]bool)
	var muts []admindb.Mutation
	for i, di := range req.Disks {
		if di.BlockSize <= 0 || di.TotalBlocks <= 0 {
			return fmt.Errorf("%w: disk %d geometry", core.ErrBadRequest, i)
		}
		bwCap := int64(di.Bandwidth)
		if bwCap <= 0 {
			bwCap = int64(24 * units.Mbps) // conservative default budget
		}
		bw, err := schedule.NewLedger(bwCap)
		if err != nil {
			return err
		}
		space, err := schedule.NewLedger(di.TotalBlocks)
		if err != nil {
			return err
		}
		// Stored content occupies the difference between total and
		// free blocks as a standing reservation.
		if err := space.SetStanding(di.TotalBlocks - di.FreeBlocks); err != nil {
			return fmt.Errorf("%w: disk %d free/total mismatch", core.ErrBadRequest, i)
		}
		m.disks = append(m.disks, &diskState{blockSize: di.BlockSize, bw: bw, space: space, lastHitPct: -1})
		for _, decl := range di.Contents {
			declared[decl.Name] = true
			if c.db.Content(decl.Name) == nil {
				info := core.ContentInfo{Name: decl.Name, Type: decl.Type, Length: decl.Length, Size: decl.Size, HasFast: decl.HasFast}
				muts = append(muts, putContentAt(info, core.DiskID{MSU: req.ID, N: i}))
			} else {
				muts = append(muts, admindb.SetLocation(decl.Name, admindb.Location{MSU: req.ID, Disk: i}))
			}
		}
	}
	// The NIC delivery budget: advertised, or defaulting to the sum of
	// the disk budgets so a cluster without RAM caching admits exactly
	// as many streams as it did before the net ledger existed.
	netCap := int64(req.NetBandwidth)
	if netCap <= 0 {
		for _, d := range m.disks {
			netCap += d.bw.Capacity()
		}
	}
	net, err := schedule.NewLedger(netCap)
	if err != nil {
		return err
	}
	m.net = net
	// Sweep stale declarations: anything this MSU used to hold but no
	// longer declares (deleted while down, or a disk removed) must not
	// stay schedulable — clients would be dispatched onto nonexistent
	// content. Composite parents are Coordinator-side records, never
	// declared by MSUs, so they are exempt; a parent with missing
	// children fails at expandContent instead.
	for _, rec := range c.db.Contents() {
		name := rec.Info.Name
		if t, ok := c.db.Type(rec.Info.Type); ok && t.Composite() {
			continue
		}
		if _, held := rec.Locate(req.ID); held && !declared[name] {
			if len(rec.Locations) > 1 {
				muts = append(muts, admindb.DropLocation(name, req.ID))
			} else {
				muts = append(muts, admindb.DeleteContent(name))
				c.logf("content %q dropped: MSU %q no longer declares it", name, req.ID)
			}
		}
	}
	// The merged catalog must be durable before the MSU is told it is
	// registered; a re-registration after a Coordinator restart is what
	// reconciles the journal against reality.
	if err := c.apply(muts...); err != nil {
		return err
	}
	c.msus[req.ID] = m
	c.bound[w.conn] = m
	c.logf("MSU %q registered with %d disks", req.ID, len(m.disks))
	c.event(obs.Event{Kind: obs.EvMSUUp, MSU: string(req.ID), Disk: -1,
		Detail: fmt.Sprintf("%d disks", len(m.disks))})
	c.release()
	c.answer(w.owner, &wire.MSUWelcome{}, nil)
	return nil
}

// orphan is a play group whose MSU failed, waiting for a new home.
type orphan struct {
	id      uint64
	streams []*activeStream
}

// msuDown marks a failed MSU unavailable, releases every reservation
// held by its streams, and queues each orphaned play group for another
// MSU holding its content (§2.2); the client hears stream-migrated or
// stream-lost. A recording, whose data died with the MSU, is lost at
// once.
func (c *engine) msuDown(now time.Time, m *msuState) {
	if c.msus[m.id] != m {
		return // a newer registration replaced this one
	}
	m.alive = false
	// Transfers sourcing from or landing on the dead MSU cannot finish;
	// tear down their reservations now so nothing leaks if the MSU never
	// returns. A surviving destination is told to abandon its pull and
	// removes the files it had created; a dead destination's are not
	// content (nothing published them) and its next start sweeps them.
	c.abortReplicationsLocked("endpoint failed", func(r *replication) bool {
		return r.srcM == m || r.dstM == m
	})
	groups := make(map[uint64][]*activeStream)
	var ids []uint64
	for _, a := range c.active {
		if a.msu != m.id {
			continue
		}
		c.releaseStreamLocked(a)
		if d := c.starting[a.group]; d != nil {
			d.down = append(d.down, a) // its start's outcome decides where it goes
			continue
		}
		if groups[a.group] == nil {
			ids = append(ids, a.group)
		}
		groups[a.group] = append(groups[a.group], a)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	c.logf("MSU %q down (%d stream groups orphaned)", m.id, len(ids))
	c.event(obs.Event{Kind: obs.EvMSUDown, MSU: string(m.id), Disk: -1,
		Detail: fmt.Sprintf("%d stream groups orphaned", len(ids))})
	var settle []admindb.Mutation
	for _, id := range ids {
		settle = append(settle, c.orphanLocked(now, m.id, id, groups[id])...)
	}
	c.apply(settle...) //nolint:errcheck // counted and logged inside; an unsettled entry is re-reported lost after the next restart
	c.release()
}

// orphanLocked re-homes one group whose streams MSU m's failure released:
// a recording is lost, and the journal entry to settle returned; a play
// group waits on the queue for another MSU holding its content.
func (c *engine) orphanLocked(now time.Time, m core.MSUID, id uint64, streams []*activeStream) []admindb.Mutation {
	// Deterministic StartStream order on the replacement MSU.
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })
	switch {
	case streams[0].record:
		c.lost(streams[0].session, id, fmt.Sprintf("recording MSU %q failed", m))
		if _, ok := c.db.Recording(id); ok {
			return []admindb.Mutation{admindb.DeleteRecording(id)}
		}
	case !c.closed:
		c.queue = append(c.queue, &waiting{session: streams[0].session, req: &orphan{id: id, streams: streams},
			since: now, deadline: now.Add(c.cfg.QueueTimeout)})
	}
	return nil
}

// admitOrphan re-places an orphaned play group, keeping its stream and
// group IDs, on a live MSU holding every part.
func (c *engine) admitOrphan(w *waiting, g *orphan) error {
	if c.sessions[w.session] == nil {
		return nil // client gone; no one to deliver to
	}
	demands := make([]demand, len(g.streams))
	parts := make([]*admindb.ContentRecord, len(g.streams))
	for i, a := range g.streams {
		demands[i] = demand{a: a}
		if parts[i] = c.db.Content(a.content); parts[i] == nil {
			return busy("content %q no longer registered", a.content)
		}
	}
	cands := c.playCandidatesLocked(parts)
	if len(cands) == 0 {
		return busy("no live MSU holds a replica")
	}
	p := c.place(demands, cands)
	if p == nil {
		return busy("a replica exists but no MSU has bandwidth")
	}
	c.dispatch(&dispatch{placement: p, w: w})
	return nil
}

// migrated tells the client of session its orphaned group has a new
// home.
func (c *engine) migrated(session core.SessionID, g *orphan, p *placement) {
	note := wire.StreamMigrated{Group: g.id, MSU: p.m.id}
	for _, spec := range p.specs {
		note.Streams = append(note.Streams, wire.StreamInfo{Stream: spec.Stream, Content: spec.Content, Type: spec.Type})
	}
	if s := c.sessions[session]; s != nil {
		c.notify(s.conn, wire.TypeStreamMigrated, note)
	}
	c.logf("group %d re-dispatched to MSU %q", g.id, p.m.id)
	c.om.migrations.Inc()
	for _, spec := range p.specs {
		c.event(obs.Event{Kind: obs.EvMigrate, Session: uint64(session), Group: g.id,
			Stream: uint64(spec.Stream), MSU: string(p.m.id), Disk: spec.Disk, Content: spec.Content})
	}
}

// lost tells the client its group died with its MSU.
func (c *engine) lost(sess core.SessionID, group uint64, reason string) {
	if s := c.sessions[sess]; s != nil {
		c.notify(s.conn, wire.TypeStreamLost, wire.StreamLost{Group: group, Reason: reason})
	}
	c.logf("group %d lost: %s", group, reason)
	c.om.lost.Inc()
	c.event(obs.Event{Kind: obs.EvLost, Session: uint64(sess), Group: group, Disk: -1, Detail: reason})
}

// streamEnded handles the MSU's termination notice.
func (c *engine) streamEnded(req wire.StreamEnded) {
	a, ok := c.active[req.Stream]
	if !ok {
		return
	}
	c.releaseStreamLocked(a)
	if a.record {
		c.settleRecordGroupLocked(a.group)
	}
	c.logf("stream %d ended (%s)", req.Stream, req.Cause)
	c.om.ended.Inc()
	c.event(obs.Event{Kind: obs.EvEOF, Session: uint64(a.session), Group: a.group,
		Stream: uint64(req.Stream), MSU: string(a.msu), Disk: a.disk,
		Content: a.content, Detail: req.Cause})
	c.release()
}

// settleRecordGroupLocked journals the end of an in-flight recording
// once its last record stream is gone — covering components that
// ended without committing (empty recordings never send
// recording-done).
func (c *engine) settleRecordGroupLocked(group uint64) {
	if _, ok := c.db.Recording(group); !ok {
		return
	}
	for _, a := range c.active {
		if a.group == group {
			return // a component stream is still running
		}
	}
	c.apply(admindb.DeleteRecording(group)) //nolint:errcheck // counted and logged inside; an unsettled entry is re-reported lost after the next restart
}

// recordingDone commits a recording: the content enters the table of
// contents at its actual size, and the disk's standing space grows by
// that amount while the estimate-based reservation is dropped (the
// overestimate returns to the pool — §2.2). The last component of a
// composite recording publishes the parent too. A stream never
// dispatched here was recorded across a restart: the file is ground
// truth and is listed all the same (its blocks count twice until the
// MSU re-registers).
func (c *engine) recordingDone(conn connID, req wire.RecordingDone) error {
	m, err := c.msuOf(conn)
	if err != nil {
		return err
	}
	a, known := c.active[req.Stream]
	if !known {
		a = &activeStream{} // recorded across a restart: no group, no grant
	}
	at := core.DiskID{MSU: m.id, N: req.Disk}
	d := c.diskState(at)
	switch {
	case known && a.msu != m.id, !known && (c.msus[m.id] != m || !m.alive):
		return fmt.Errorf("%w: stream %d", core.ErrNoSuchStream, req.Stream)
	case d == nil:
		return fmt.Errorf("%w: disk %d", core.ErrBadRequest, req.Disk)
	case !known && c.db.Content(req.Content) != nil:
		return fmt.Errorf("%w: content %q", core.ErrDuplicateName, req.Content)
	}
	info := core.ContentInfo{Name: req.Content, Type: req.Type, Length: req.Length, Size: req.Size, Disk: at}
	muts := []admindb.Mutation{putContentAt(info, at)}
	// Once every component has committed, the recording is no longer
	// in flight: a crash after this journal batch must not report it
	// lost.
	if pend, ok := c.db.Recording(a.group); ok {
		muts = append(muts, c.settled(pend, info)...)
	}
	if err := c.apply(muts...); err != nil {
		return err
	}
	a.grant.drop(d.space)
	d.space.AddStanding(blocksFor(req.Size, d.blockSize)) //nolint:errcheck
	c.logf("recording %q committed by MSU %q (stream %d known: %v): %v, %v", req.Content, m.id, req.Stream, known, req.Length, req.Size)
	c.release()
	return nil
}

// settled is what committing last adds to the batch when it is the
// last of pend's components: the end of the in-flight entry and, for a
// composite, its parent — its longest child's length, all their sizes,
// its children in component order, on the first one's disk.
func (c *engine) settled(pend admindb.PendingRecording, last core.ContentInfo) []admindb.Mutation {
	parent := core.ContentInfo{Name: pend.Parent, Type: pend.Type, Children: append([]string(nil), pend.Contents...)}
	var disk core.DiskID
	for i, name := range pend.Contents {
		child := last
		if name != last.Name {
			rec := c.db.Content(name)
			if rec == nil {
				return nil // a component has yet to commit
			}
			child = rec.Info
		}
		if i == 0 {
			disk = child.Disk
		}
		parent.Length = max(parent.Length, child.Length)
		parent.Size += child.Size
	}
	if pend.Parent == "" {
		return []admindb.Mutation{admindb.DeleteRecording(pend.Group)}
	}
	c.logf("composite %q assembled from %v", pend.Parent, pend.Contents)
	return []admindb.Mutation{putContentAt(parent, disk), admindb.DeleteRecording(pend.Group)}
}

// registerPort validates and stores a display port (§2.1).
func (c *engine) registerPort(conn connID, req wire.RegisterPort) (*wire.PortOK, error) {
	s, err := c.liveSession(c.sessionID(conn))
	if err != nil {
		return nil, err
	}
	t, ok := c.db.Type(req.Type)
	if !ok {
		return nil, fmt.Errorf("%w: %q", core.ErrNoSuchType, req.Type)
	}
	if _, dup := s.ports[req.Name]; dup {
		return nil, fmt.Errorf("%w: port %q", core.ErrDuplicateName, req.Name)
	}
	if t.Composite() {
		// Composite ports are built from previously-registered
		// component ports.
		for _, compType := range t.Components {
			compPort, ok := req.Components[compType]
			if !ok {
				return nil, fmt.Errorf("%w: composite port missing component for type %q", core.ErrBadRequest, compType)
			}
			p, ok := s.ports[compPort]
			if !ok {
				return nil, fmt.Errorf("%w: component port %q", core.ErrNoSuchPort, compPort)
			}
			if p.Type != compType {
				return nil, fmt.Errorf("%w: port %q is %q, need %q", core.ErrTypeMismatch, compPort, p.Type, compType)
			}
		}
	} else if req.Addr == "" {
		return nil, fmt.Errorf("%w: atomic port needs a data address", core.ErrBadRequest)
	}
	ids := c.db.Counters()
	ids.NextPort++
	if err := c.apply(admindb.SetCounters(ids)); err != nil {
		return nil, err
	}
	id := core.PortID(ids.NextPort)
	s.ports[req.Name] = &core.DisplayPort{
		ID:         id,
		Session:    s.id,
		Name:       req.Name,
		Type:       req.Type,
		Addr:       req.Addr,
		Control:    req.Control,
		Components: req.Components,
	}
	return &wire.PortOK{Port: id}, nil
}

func (c *engine) unregisterPort(conn connID, req wire.UnregisterPort) error {
	s, err := c.liveSession(c.sessionID(conn))
	if err != nil {
		return err
	}
	if _, ok := s.ports[req.Name]; !ok {
		return fmt.Errorf("%w: %q", core.ErrNoSuchPort, req.Name)
	}
	delete(s.ports, req.Name)
	return nil
}

// expandContent returns the atomic items behind a content name:
// composite items expand to their children.
func (c *engine) expandContent(name string) (*admindb.ContentRecord, []*admindb.ContentRecord, error) {
	rec := c.db.Content(name)
	if rec == nil {
		return nil, nil, fmt.Errorf("%w: %q", core.ErrNoSuchContent, name)
	}
	t, ok := c.db.Type(rec.Info.Type)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", core.ErrNoSuchType, rec.Info.Type)
	}
	if !t.Composite() {
		return rec, []*admindb.ContentRecord{rec}, nil
	}
	var parts []*admindb.ContentRecord
	for _, child := range rec.Info.Children {
		cr := c.db.Content(child)
		if cr == nil {
			return nil, nil, fmt.Errorf("%w: component %q", core.ErrNoSuchContent, child)
		}
		parts = append(parts, cr)
	}
	if len(parts) == 0 {
		return nil, nil, fmt.Errorf("%w: composite %q has no components", core.ErrBadRequest, name)
	}
	return rec, parts, nil
}

// portForType finds the data/control addresses for an atomic part. For
// composite ports it follows the component mapping.
func portForType(s *session, port *core.DisplayPort, atomicType string) (data, ctrl string, err error) {
	if port.Type == atomicType {
		return port.Addr, port.Control, nil
	}
	compName, ok := port.Components[atomicType]
	if !ok {
		return "", "", fmt.Errorf("%w: port %q has no component for %q", core.ErrTypeMismatch, port.Name, atomicType)
	}
	p, ok := s.ports[compName]
	if !ok {
		return "", "", fmt.Errorf("%w: component port %q", core.ErrNoSuchPort, compName)
	}
	return p.Addr, p.Control, nil
}

// queueDeadline is QueueTimeout away when the request may wait.
func (c *engine) queueDeadline(now time.Time, wait bool) time.Time {
	if !wait {
		return time.Time{}
	}
	return now.Add(c.cfg.QueueTimeout)
}

// play schedules playback. With req.Wait a busy refusal queues (§2.2).
func (c *engine) play(now time.Time, owner uint64, conn connID, req wire.Play) {
	c.request(now, &waiting{owner: owner, session: c.sessionID(conn), req: &req, deadline: c.queueDeadline(now, req.Wait)})
}

// admitPlay is one pass of the admission path for a play.
func (c *engine) admitPlay(w *waiting, req *wire.Play) error {
	s, err := c.liveSession(w.session)
	if err != nil {
		return err
	}
	port, ok := s.ports[req.Port]
	if !ok {
		return fmt.Errorf("%w: %q", core.ErrNoSuchPort, req.Port)
	}
	rec, parts, err := c.expandContent(req.Content)
	if err != nil {
		return err
	}
	// "Calliope checks that the port and the content have the same
	// type" (§2.1).
	if port.Type != rec.Info.Type {
		return fmt.Errorf("%w: content %q is %q, port %q is %q",
			core.ErrTypeMismatch, req.Content, rec.Info.Type, port.Name, port.Type)
	}
	if req.ControlAddr == "" {
		return fmt.Errorf("%w: play needs a control address", core.ErrBadRequest)
	}
	cands := c.playCandidatesLocked(parts)
	if len(cands) == 0 {
		return busy("%w: no live MSU holds %q", core.ErrMSUUnavailable, req.Content)
	}
	// The IDs are issued by the counters record journaled below; a pass
	// that stops short of it has issued none.
	ids := c.db.Counters()
	ids.NextGroup++
	demands := make([]demand, len(parts))
	for i, part := range parts {
		t, ok := c.db.Type(part.Info.Type)
		if !ok {
			return fmt.Errorf("%w: %q", core.ErrNoSuchType, part.Info.Type)
		}
		data, ctrl, err := portForType(s, port, part.Info.Type)
		if err != nil {
			return err
		}
		demands[i] = demand{a: newStream(&ids, s.id, len(parts), part.Info.Name, t, req.ControlAddr)}
		demands[i].a.spec.DestAddr, demands[i].a.spec.CtrlAddr = data, ctrl
	}
	p := c.place(demands, cands)
	if p == nil {
		// Every replica is out of bandwidth, background copies included.
		// Plan another replica: by the time it commits, this queued play
		// runs again and finds the new candidate.
		for _, part := range parts {
			c.planReplicationLocked(part)
		}
		return busy("%w: no replica of %q has bandwidth", core.ErrNoResources, req.Content)
	}
	if err := c.apply(admindb.SetCounters(ids)); err != nil {
		c.rollbackLocked(p)
		return err
	}
	c.dispatch(&dispatch{placement: p, w: w, info: rec.Info})
	return nil
}

// record schedules a recording: it needs an MSU with disk bandwidth and
// space for every component (§2.2: "It must schedule the request on an
// MSU that has both disk space and bandwidth available").
func (c *engine) record(now time.Time, owner uint64, conn connID, req wire.Record) {
	c.request(now, &waiting{owner: owner, session: c.sessionID(conn), req: &req, deadline: c.queueDeadline(now, req.Wait)})
}

// admitRecord is one pass of the admission path for a recording.
func (c *engine) admitRecord(w *waiting, req *wire.Record) error {
	s, err := c.liveSession(w.session)
	switch {
	case err != nil:
		return err
	case req.Estimate <= 0:
		return fmt.Errorf("%w: recording needs a length estimate", core.ErrBadRequest)
	case req.Content == "":
		return fmt.Errorf("%w: recording needs a content name", core.ErrBadRequest)
	case req.ControlAddr == "":
		return fmt.Errorf("%w: record needs a control address", core.ErrBadRequest)
	}
	port, ok := s.ports[req.Port]
	if !ok {
		return fmt.Errorf("%w: %q", core.ErrNoSuchPort, req.Port)
	}
	t, ok := c.db.Type(req.Type)
	if !ok {
		return fmt.Errorf("%w: %q", core.ErrNoSuchType, req.Type)
	}
	if port.Type != req.Type {
		return fmt.Errorf("%w: port %q is %q, recording %q", core.ErrTypeMismatch, port.Name, port.Type, req.Type)
	}
	if c.db.Content(req.Content) != nil {
		return fmt.Errorf("%w: content %q", core.ErrDuplicateName, req.Content)
	}
	// An in-flight recording of the same name also blocks reuse.
	for _, a := range c.active {
		if a.record && (a.content == req.Content || strings.HasPrefix(a.content, req.Content+"/")) {
			return fmt.Errorf("%w: recording %q in progress", core.ErrDuplicateName, req.Content)
		}
	}
	// A composite recording is one stream per component type.
	types := []string{req.Type}
	pend := admindb.PendingRecording{}
	if t.Composite() {
		types = t.Components
		pend.Parent, pend.Type = req.Content, req.Type
	}
	ids := c.db.Counters()
	ids.NextGroup++
	demands := make([]demand, len(types))
	for i, typ := range types {
		ct, name := t, req.Content
		if t.Composite() {
			if ct, ok = c.db.Type(typ); !ok {
				return fmt.Errorf("%w: component type %q", core.ErrNoSuchType, typ)
			}
			name = req.Content + "/" + typ
		}
		// The MSU opens the sockets, so the port supplies no address —
		// but it must have a component for every part.
		if _, _, err := portForType(s, port, typ); err != nil {
			return err
		}
		pend.Contents = append(pend.Contents, name)
		a := newStream(&ids, s.id, len(types), name, ct, req.ControlAddr)
		a.record, a.spec.Record, a.spec.Estimate = true, true, req.Estimate
		demands[i] = demand{a: a, blocks: func(blockSize int) int64 { return blocksForEstimate(ct, req.Estimate, blockSize) }}
	}
	p := c.place(demands, c.recordCandidatesLocked())
	if p == nil {
		return busy("%w: no MSU with bandwidth and space", core.ErrNoResources)
	}
	// Journal the recording as in flight: a Coordinator that crashes
	// from here until the last component commits finds the entry at
	// restart and reports the recording lost; a composite's entry names
	// the parent its last commit publishes.
	pend.Group, pend.MSU = ids.NextGroup, p.m.id
	if err := c.apply(admindb.SetCounters(ids), admindb.PutRecording(pend)); err != nil {
		c.rollbackLocked(p)
		return err
	}
	c.dispatch(&dispatch{placement: p, w: w})
	return nil
}

// newStream is a stream of the group ids issues, taking its next stream
// ID: content name as type t, one of size members.
func newStream(ids *admindb.Counters, sess core.SessionID, size int, name string, t core.ContentType, clientTCP string) *activeStream {
	ids.NextStream++
	id := core.StreamID(ids.NextStream)
	return &activeStream{id: id, group: ids.NextGroup, session: sess, content: name, typ: t.Name,
		spec: core.StreamSpec{Stream: id, Group: ids.NextGroup, GroupSize: size, Content: name, Type: t.Name,
			Protocol: t.Protocol, Class: t.Class, Rate: t.Bandwidth, ClientTCP: clientTCP}}
}

// blocksForEstimate converts a recording-length estimate into a block
// reservation using the type's storage consumption rate (§2.2: "The
// Coordinator uses this estimate and the content type information to
// determine how much disk space the recording will consume").
func blocksForEstimate(t core.ContentType, estimate time.Duration, blockSize int) int64 {
	if blocks := blocksFor(t.Storage.Bytes(estimate), blockSize); blocks > 1 {
		return blocks
	}
	return 1
}

// place plans demands and tells the copies the plan preempted.
func (c *engine) place(demands []demand, cands []candidate) *placement {
	p := c.planLocked(demands, cands)
	if p != nil {
		c.abortedLocked(p.preempted, "preempted by a stream")
	}
	return p
}

// A dispatch is a placement on its way to its MSU: one StartStream at a
// time, made on request w's goroutine, each outcome fed to started.
type dispatch struct {
	*placement
	w       *waiting
	info    core.ContentInfo // a play's title, for its reply
	sent    int              // StartStreams answered so far
	replies []wire.StartStreamOK
	down    []*activeStream // what its MSU's failure released meanwhile
}

func (c *engine) dispatch(d *dispatch) {
	d.replies = make([]wire.StartStreamOK, len(d.specs))
	c.starting[d.specs[0].Group] = d
	c.startNext(d)
}

func (c *engine) startNext(d *dispatch) {
	c.rpc(d.w.owner, d.m.conn, wire.TypeStartStream, wire.StartStream{Spec: d.specs[d.sent]}, &d.replies[d.sent],
		func(now time.Time, err error) { c.started(now, d, err) })
}

// started takes one StartStream's outcome. A re-dispatched group is
// committed by the last one if it still stands where it was placed (the
// MSU may have died after answering); a fresh play or recording has
// started whatever ended since, and what its MSU's failure released is
// re-homed as msuDown would have. A failure stops what started and rolls
// back: a request hears why, an orphaned group waits again for a release
// later than its own rollback.
func (c *engine) started(now time.Time, d *dispatch, err error) {
	g, redispatch := d.w.req.(*orphan)
	if err == nil {
		if d.sent++; d.sent < len(d.specs) {
			c.startNext(d)
			return
		}
		if redispatch && !c.commitLocked(d.placement) {
			err = fmt.Errorf("MSU %q failed during the start", d.m.id)
		}
	}
	delete(c.starting, d.specs[0].Group)
	if err != nil {
		for _, spec := range d.specs[:d.sent] {
			c.notify(d.m.conn, wire.TypeStopStream, wire.StopStream{Stream: spec.Stream})
		}
		c.rollbackLocked(d.placement)
	}
	if redispatch {
		if err == nil {
			c.migrated(d.w.session, g, d.placement)
		} else if !c.closed {
			c.hold(d.w, busy("re-dispatch to %q failed: %v", d.m.id, err))
			c.queue = append(c.queue, d.w)
		}
		return
	}
	if err != nil {
		if _, rec := d.w.req.(*wire.Record); rec {
			c.apply(admindb.DeleteRecording(d.specs[0].Group)) //nolint:errcheck // counted and logged inside; an unsettled entry is re-reported lost after the next restart
		}
		c.om.rejected.Inc()
		c.answer(d.w.owner, nil, fmt.Errorf("coordinator: starting on %q: %w", d.m.id, err))
		return
	}
	if req, ok := d.w.req.(*wire.Play); ok {
		c.playStarted(d, req)
	} else {
		c.recordStarted(d)
	}
	if len(d.down) > 0 {
		c.apply(c.orphanLocked(now, d.m.id, d.specs[0].Group, d.down)...) //nolint:errcheck // as in msuDown
	}
}

func (c *engine) playStarted(d *dispatch, req *wire.Play) {
	group := d.specs[0].Group
	c.om.admitted.Inc()
	c.om.dispatched.Add(int64(len(d.specs)))
	c.event(obs.Event{Kind: obs.EvAdmit, Session: uint64(d.w.session), Group: group,
		MSU: string(d.m.id), Content: req.Content, Disk: -1})
	out := &wire.PlayOK{Group: group, MSU: d.m.id, Length: d.info.Length, Size: d.info.Size}
	for _, spec := range d.specs {
		c.event(obs.Event{Kind: obs.EvDispatch, Session: uint64(d.w.session), Group: group,
			Stream: uint64(spec.Stream), MSU: string(d.m.id), Disk: spec.Disk, Content: spec.Content})
		out.Streams = append(out.Streams, wire.StreamInfo{Stream: spec.Stream, Content: spec.Content, Type: spec.Type})
	}
	c.answer(d.w.owner, out, nil)
}

func (c *engine) recordStarted(d *dispatch) {
	group := d.specs[0].Group
	c.om.records.Inc()
	out := &wire.RecordOK{Group: group, MSU: d.m.id}
	for i, spec := range d.specs {
		out.Streams = append(out.Streams, wire.RecordStream{
			Stream: spec.Stream, Content: spec.Content, Type: spec.Type,
			DataAddr: d.replies[i].DataAddr, CtrlAddr: d.replies[i].CtrlAddr,
		})
		out.Reserved += spec.Reserved
	}
	c.answer(d.w.owner, out, nil)
}
