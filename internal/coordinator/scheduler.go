package coordinator

import (
	"errors"
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

// msuRPCTimeout bounds Coordinator→MSU control calls so a wedged MSU
// cannot hang a client request; the failure path then treats the MSU
// like any other unresponsive one.
const msuRPCTimeout = 15 * time.Second

// msuHello (re)registers an MSU: rebuild its disk ledgers and merge its
// content declarations into the table of contents.
func (ctx *connCtx) msuHello(req wire.MSUHello) (*wire.MSUWelcome, error) {
	if req.ID == "" {
		return nil, fmt.Errorf("%w: MSU has no id", core.ErrBadRequest)
	}
	if req.ProtoVersion != wire.ProtoVersion {
		return nil, fmt.Errorf("%w: MSU %q speaks protocol v%d, coordinator speaks v%d; upgrade the older side",
			core.ErrBadRequest, req.ID, req.ProtoVersion, wire.ProtoVersion)
	}
	c := ctx.c
	c.mu.Lock()
	defer c.mu.Unlock()

	m := c.msus[req.ID]
	if m != nil && m.alive && m.peer != ctx.peer {
		// A new connection claims a name whose old connection has not
		// yet been observed to break (§2.2: failures are detected by
		// broken TCP connections, and a returning MSU re-registers).
		// A restarting MSU typically races ahead of the EOF from its
		// dying socket, so give msuDown a grace period to release the
		// name before ruling this a duplicate.
		m = c.waitMSUReleaseLocked(req.ID)
	}
	if m != nil && m.alive {
		return nil, fmt.Errorf("%w: MSU %q already registered", core.ErrDuplicateName, req.ID)
	}
	prev := m
	m = &msuState{id: req.ID, peer: ctx.peer, alive: true, transferAddr: req.TransferAddr}
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
			return nil, fmt.Errorf("%w: disk %d geometry", core.ErrBadRequest, i)
		}
		bwCap := int64(di.Bandwidth)
		if bwCap <= 0 {
			bwCap = int64(24 * units.Mbps) // conservative default budget
		}
		bw, err := schedule.NewLedger(bwCap)
		if err != nil {
			return nil, err
		}
		space, err := schedule.NewLedger(di.TotalBlocks)
		if err != nil {
			return nil, err
		}
		// Stored content occupies the difference between total and
		// free blocks as a standing reservation.
		if err := space.SetStanding(di.TotalBlocks - di.FreeBlocks); err != nil {
			return nil, fmt.Errorf("%w: disk %d free/total mismatch", core.ErrBadRequest, i)
		}
		m.disks = append(m.disks, &diskState{blockSize: di.BlockSize, bw: bw, space: space, lastHitPct: -1})
		for _, decl := range di.Contents {
			declared[decl.Name] = true
			if c.db.Content(decl.Name) == nil {
				muts = append(muts, putContentAt(core.ContentInfo{
					Name:    decl.Name,
					Type:    decl.Type,
					Length:  decl.Length,
					Size:    decl.Size,
					HasFast: decl.HasFast,
				}, core.DiskID{MSU: req.ID, N: i}))
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
		return nil, err
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
		return nil, err
	}
	c.msus[req.ID] = m
	ctx.mu.Lock()
	ctx.msu = m
	ctx.mu.Unlock()
	c.logf("MSU %q registered with %d disks", req.ID, len(m.disks))
	c.event(obs.Event{Kind: obs.EvMSUUp, MSU: string(req.ID), Disk: -1,
		Detail: fmt.Sprintf("%d disks", len(m.disks))})
	c.signalRelease()
	return &wire.MSUWelcome{}, nil
}

// reregisterGrace bounds how long a re-registering MSU's hello waits
// for the Coordinator to notice the previous connection breaking.
const reregisterGrace = time.Second

// waitMSUReleaseLocked waits (up to reregisterGrace) for msuDown to
// release the named MSU, returning its latest state. Callers hold
// c.mu; the lock is dropped while waiting and reacquired before
// returning. If the old connection is genuinely still alive, the name
// stays taken and the caller rejects the duplicate.
func (c *Coordinator) waitMSUReleaseLocked(id core.MSUID) *msuState {
	timer := time.NewTimer(reregisterGrace)
	defer timer.Stop()
	for {
		m := c.msus[id]
		if m == nil || !m.alive {
			return m
		}
		ch := c.release
		c.mu.Unlock()
		select {
		case <-ch:
			c.mu.Lock()
		case <-timer.C:
			c.mu.Lock()
			return c.msus[id]
		}
	}
}

// msuDown marks a failed MSU unavailable, releases every reservation
// held by its streams, and tries to re-dispatch each orphaned play
// group onto another MSU holding the same content (§2.2 fault
// tolerance). Groups that cannot move immediately join the paper's
// pending queue (they wait for released resources up to QueueTimeout);
// the client hears the outcome as a stream-migrated or stream-lost
// notification on its session connection.
func (c *Coordinator) msuDown(m *msuState) {
	c.mu.Lock()
	cur := c.msus[m.id]
	if cur != m {
		c.mu.Unlock()
		return // a newer registration replaced this one
	}
	m.alive = false
	// Transfers sourcing from or landing on the dead MSU cannot finish;
	// tear down their reservations now so nothing leaks if the MSU never
	// returns. A surviving destination is told to abandon its pull and
	// removes the files it had created; a dead destination's are not
	// content (nothing published them) and its next start sweeps them.
	replAborts := c.abortReplicationsLocked("endpoint failed", func(r *replication) bool {
		return r.srcM == m || r.dstM == m
	})
	groups := make(map[uint64]*failedGroup)
	for _, a := range c.active {
		if a.msu != m.id {
			continue
		}
		c.releaseStreamLocked(a)
		g := groups[a.group]
		if g == nil {
			g = &failedGroup{id: a.group, session: a.session}
			groups[a.group] = g
		}
		g.streams = append(g.streams, a)
		if a.record {
			g.record = true
		}
	}
	c.logf("MSU %q down (%d stream groups orphaned)", m.id, len(groups))
	c.event(obs.Event{Kind: obs.EvMSUDown, MSU: string(m.id), Disk: -1,
		Detail: fmt.Sprintf("%d stream groups orphaned", len(groups))})
	var lost, moved []*failedGroup
	var settle []admindb.Mutation
	for _, g := range groups {
		// Deterministic StartStream order on the replacement MSU.
		sort.Slice(g.streams, func(i, j int) bool { return g.streams[i].id < g.streams[j].id })
		if g.record {
			// A recording's data lives only on the failed MSU; there is
			// nothing to migrate to.
			lost = append(lost, g)
			if _, ok := c.db.Recording(g.id); ok {
				settle = append(settle, admindb.DeleteRecording(g.id))
			}
		} else {
			moved = append(moved, g)
		}
	}
	c.apply(settle...) //nolint:errcheck // counted and logged inside; an unsettled entry is re-reported lost after the next restart
	if !c.closed {
		// A group may already be mid-recovery: its redispatcher placed it
		// on this MSU and the start-stream RPC was in flight when the MSU
		// died. The owner sees its entries vanish and keeps retrying; a
		// second goroutine would race it (duplicate notifications, or the
		// group started twice on different MSUs).
		kept := moved[:0]
		for _, g := range moved {
			if c.redispatching[g.id] {
				continue
			}
			c.redispatching[g.id] = true
			kept = append(kept, g)
		}
		moved = kept
		// Add under the lock so Close's wg.Wait cannot race the Add.
		c.wg.Add(len(moved))
	} else {
		moved = nil
	}
	c.signalRelease()
	c.mu.Unlock()

	sendAborts(replAborts)
	for _, g := range lost {
		c.notifyGroupLost(g.session, g.id, fmt.Sprintf("recording MSU %q failed", m.id))
	}
	for _, g := range moved {
		go func(g *failedGroup) {
			defer c.wg.Done()
			c.redispatchGroup(g)
		}(g)
	}
}

// failedGroup is one stream group orphaned by an MSU failure.
type failedGroup struct {
	id      uint64
	session core.SessionID
	record  bool
	streams []*activeStream
}

// redispatchGroup parks an orphaned play group on the pending queue —
// the same discipline as a client-side Wait-ing play — until it lands
// on a live MSU holding every part or the queue deadline passes.
func (c *Coordinator) redispatchGroup(g *failedGroup) {
	defer func() {
		c.mu.Lock()
		delete(c.redispatching, g.id)
		c.mu.Unlock()
	}()
	var home *placement
	// One pass of the admission path, under c.mu: plan, dispatch.
	err := c.waitQueue(true, obs.Event{Session: uint64(g.session), Group: g.id}, func() error {
		if c.sessions[g.session] == nil {
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
		p := c.planLocked(demands, cands)
		if p == nil {
			return busy("a replica exists but no MSU has bandwidth")
		}
		// Unlike a fresh play, a failed start is worth another pass:
		// another replica, or this MSU once it is back, may take the group.
		_, standing, err := c.dispatchLocked(p)
		if err != nil {
			return busy("re-dispatch to %q failed: %v", p.m.id, err)
		}
		if !standing {
			return busy("MSU %q failed during re-dispatch", p.m.id)
		}
		home = p
		return nil
	})
	switch {
	case home != nil:
		c.notifyGroupMigrated(g, home)
	case err != nil && !errors.Is(err, core.ErrSessionClosed):
		c.notifyGroupLost(g.session, g.id, err.Error())
	}
}

// notifyGroupMigrated tells the client its group has a new home.
func (c *Coordinator) notifyGroupMigrated(g *failedGroup, p *placement) {
	note := wire.StreamMigrated{Group: g.id, MSU: p.m.id}
	for _, spec := range p.specs {
		note.Streams = append(note.Streams, wire.StreamInfo{Stream: spec.Stream, Content: spec.Content, Type: spec.Type})
	}
	if peer := c.sessionPeer(g.session); peer != nil {
		peer.Notify(wire.TypeStreamMigrated, note) //nolint:errcheck // the session may be dying; nothing more to do
	}
	c.logf("group %d re-dispatched to MSU %q", g.id, p.m.id)
	c.om.migrations.Inc()
	for _, spec := range p.specs {
		c.event(obs.Event{Kind: obs.EvMigrate, Session: uint64(g.session), Group: g.id,
			Stream: uint64(spec.Stream), MSU: string(p.m.id), Disk: spec.Disk, Content: spec.Content})
	}
}

// sessionPeer returns the connection of a session, nil once it is gone.
func (c *Coordinator) sessionPeer(id core.SessionID) *wire.Peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.sessions[id]; s != nil {
		return s.peer
	}
	return nil
}

// notifyGroupLost tells the client its group died with its MSU.
func (c *Coordinator) notifyGroupLost(sess core.SessionID, group uint64, reason string) {
	if peer := c.sessionPeer(sess); peer != nil {
		peer.Notify(wire.TypeStreamLost, wire.StreamLost{Group: group, Reason: reason}) //nolint:errcheck
	}
	c.logf("group %d lost: %s", group, reason)
	c.om.lost.Inc()
	c.event(obs.Event{Kind: obs.EvLost, Session: uint64(sess), Group: group, Disk: -1, Detail: reason})
}

// streamEnded handles the MSU's termination notice.
func (c *Coordinator) streamEnded(req wire.StreamEnded) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.signalRelease()
}

// settleRecordGroupLocked journals the end of an in-flight recording
// once its last record stream is gone — covering components that
// ended without committing (empty recordings never send
// recording-done). Callers hold c.mu.
func (c *Coordinator) settleRecordGroupLocked(group uint64) {
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
// overestimate returns to the pool — §2.2).
func (ctx *connCtx) recordingDone(req wire.RecordingDone) error {
	c := ctx.c
	ctx.mu.Lock()
	m := ctx.msu
	ctx.mu.Unlock()
	if m == nil {
		return fmt.Errorf("%w: not an MSU connection", core.ErrBadRequest)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.active[req.Stream]
	if !ok {
		return c.orphanRecordingLocked(m, req)
	}
	if a.msu != m.id {
		return fmt.Errorf("%w: stream %d", core.ErrNoSuchStream, req.Stream)
	}
	d := c.diskState(core.DiskID{MSU: m.id, N: req.Disk})
	if d == nil {
		return fmt.Errorf("%w: disk %d", core.ErrBadRequest, req.Disk)
	}
	at := core.DiskID{MSU: m.id, N: req.Disk}
	muts := []admindb.Mutation{putContentAt(core.ContentInfo{
		Name:   req.Content,
		Type:   req.Type,
		Length: req.Length,
		Size:   req.Size,
	}, at)}
	// Composite recording: once every component has committed, publish
	// the parent item.
	var pc *pendingComposite
	if cur := c.pending[a.group]; cur != nil && cur.waiting[req.Content] {
		pc = cur.committed(req, at)
		if len(pc.waiting) == 0 {
			muts = append(muts, putContentAt(core.ContentInfo{
				Name:     pc.parent,
				Type:     pc.typ,
				Length:   pc.length,
				Size:     units.ByteSize(pc.size),
				Children: pc.done,
			}, pc.disk))
		}
	}
	// Once every component has committed, the recording is no longer
	// in flight: a crash after this journal batch must not report it
	// lost.
	if pend, ok := c.db.Recording(a.group); ok {
		left := 0
		for _, name := range pend.Contents {
			if name != req.Content && c.db.Content(name) == nil {
				left++
			}
		}
		if left == 0 {
			muts = append(muts, admindb.DeleteRecording(a.group))
		}
	}
	if err := c.apply(muts...); err != nil {
		return err
	}
	a.grant.drop(d.space)
	d.space.AddStanding(blocksFor(req.Size, d.blockSize)) //nolint:errcheck
	switch {
	case pc == nil:
	case len(pc.waiting) > 0:
		c.pending[a.group] = pc
	default:
		delete(c.pending, a.group)
		c.logf("composite %q assembled from %v", pc.parent, pc.done)
	}
	c.logf("recording %q committed: %v, %v", req.Content, req.Length, req.Size)
	c.signalRelease()
	return nil
}

// orphanRecordingLocked admits a recording-done for a stream this
// Coordinator never dispatched: the MSU recorded across a Coordinator
// restart and is now committing. The file on the MSU's disk is ground
// truth, so the content enters the table of contents rather than
// being stranded invisible until the MSU's next re-registration. The
// restart already reported the recording lost-in-flight; a commit
// arriving afterwards supersedes that. Callers hold c.mu.
func (c *Coordinator) orphanRecordingLocked(m *msuState, req wire.RecordingDone) error {
	if c.msus[m.id] != m || !m.alive {
		return fmt.Errorf("%w: stream %d", core.ErrNoSuchStream, req.Stream)
	}
	d := c.diskState(core.DiskID{MSU: m.id, N: req.Disk})
	if d == nil {
		return fmt.Errorf("%w: disk %d", core.ErrBadRequest, req.Disk)
	}
	if c.db.Content(req.Content) != nil {
		return fmt.Errorf("%w: content %q", core.ErrDuplicateName, req.Content)
	}
	if err := c.apply(putContentAt(core.ContentInfo{
		Name:   req.Content,
		Type:   req.Type,
		Length: req.Length,
		Size:   req.Size,
	}, core.DiskID{MSU: m.id, N: req.Disk})); err != nil {
		return err
	}
	// Count the file against disk space. The MSU registered mid-write,
	// so blocks it had already allocated are in its declared standing
	// reservation too — a conservative double count that the next
	// re-registration's fresh ledgers correct.
	d.space.AddStanding(blocksFor(req.Size, d.blockSize)) //nolint:errcheck
	c.logf("recording %q committed by MSU %q across a restart (stream %d unknown)", req.Content, m.id, req.Stream)
	c.signalRelease()
	return nil
}

// registerPort validates and stores a display port (§2.1).
func (ctx *connCtx) registerPort(req wire.RegisterPort) (*wire.PortOK, error) {
	s, err := ctx.requireSession()
	if err != nil {
		return nil, err
	}
	c := ctx.c
	c.mu.Lock()
	defer c.mu.Unlock()
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

func (ctx *connCtx) unregisterPort(req wire.UnregisterPort) error {
	s, err := ctx.requireSession()
	if err != nil {
		return err
	}
	c := ctx.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := s.ports[req.Name]; !ok {
		return fmt.Errorf("%w: %q", core.ErrNoSuchPort, req.Name)
	}
	delete(s.ports, req.Name)
	return nil
}

// expandContent returns the atomic items behind a content name:
// composite items expand to their children.
func (c *Coordinator) expandContent(name string) (*admindb.ContentRecord, []*admindb.ContentRecord, error) {
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

// busyError marks a refusal that waiting on the pending queue could
// cure — resources held, an MSU down — as opposed to a request that can
// never be admitted as asked.
type busyError struct{ error }

func (e busyError) Unwrap() error { return e.error }

func busy(format string, args ...any) error {
	return busyError{fmt.Errorf(format, args...)}
}

// waitQueue is the pending queue (§2.2: "queues requests that cannot be
// satisfied"): it runs pass, one pass of the admission path, until the
// request is settled. A busy refusal parks the request — when wait
// allows it — until resources are released somewhere or QueueTimeout
// passes. pass runs with c.mu held, and the wake-up channel is read
// under that same hold: a release after the refusal is never missed,
// and what the pass itself gave back (a failed start's rollback) does
// not wake it. Close wakes every parked request, and a request that
// finds the Coordinator closed ends with ErrSessionClosed. Every kind of
// request parks here, so the queue's gauge, counters, wait histogram and
// event (stamped from who) are kept in this one place.
func (c *Coordinator) waitQueue(wait bool, who obs.Event, pass func() error) error {
	start := c.cfg.Now()
	deadline := start.Add(c.cfg.QueueTimeout)
	parked := false
	c.mu.Lock()
	defer func() {
		if parked {
			c.om.parked.Add(-1)
		}
		c.mu.Unlock()
	}()
	for !c.closed {
		err := pass()
		if err == nil {
			if parked {
				c.om.queueWait.Observe(c.cfg.Now().Sub(start))
			}
			return nil
		}
		remain := deadline.Sub(c.cfg.Now())
		mayWait := wait && errors.As(err, &busyError{})
		if mayWait && remain <= 0 {
			err = fmt.Errorf("%w: queued past deadline (%v)", core.ErrNoResources, err)
		}
		if !mayWait || remain <= 0 {
			c.om.rejected.Inc()
			return err
		}
		if c.closed {
			break // Close ran while the pass had dropped c.mu to dispatch; its wake-up is spent
		}
		if !parked {
			parked = true
			c.om.parked.Add(1)
			c.om.queued.Inc()
			who.Kind, who.Disk, who.Detail = obs.EvQueue, -1, err.Error()
			c.event(who)
		}
		released := c.release
		c.mu.Unlock()
		t := time.NewTimer(remain)
		select {
		case <-released:
			t.Stop()
		case <-t.C:
		}
		c.mu.Lock()
	}
	return core.ErrSessionClosed
}

// dispatchLocked carries a planned placement out. Callers hold c.mu.
// It journals muts first — what must survive a crash before any stream
// leaves this process: the issued IDs at least, so a restarted
// Coordinator never re-issues an ID the MSU or client may still be
// using. Then it drops c.mu to tell the copies the plan preempted and
// to start the streams on the MSU, and retakes it for the verdict. If
// anything fails it stops the streams already running, rolls the
// placement back and wakes the queue. Otherwise standing is the commit
// verdict — false when the MSU died after answering, in which case its
// msuDown has already taken over the group's recovery.
func (c *Coordinator) dispatchLocked(p *placement, muts ...admindb.Mutation) (replies []wire.StartStreamOK, standing bool, err error) {
	aborts := c.abortNoticesLocked(p.preempted, "preempted by a stream")
	err = c.apply(muts...)
	peer := p.m.peer
	c.mu.Unlock()
	sendAborts(aborts)
	replies = make([]wire.StartStreamOK, len(p.specs))
	for i := 0; i < len(p.specs) && err == nil; i++ {
		if err = peer.CallTimeout(wire.TypeStartStream, wire.StartStream{Spec: p.specs[i]}, &replies[i], msuRPCTimeout); err != nil {
			for _, started := range p.specs[:i] {
				peer.Notify(wire.TypeStopStream, wire.StopStream{Stream: started.Stream}) //nolint:errcheck // the MSU may be gone; its teardown stops them anyway
			}
		}
	}
	c.mu.Lock()
	if err != nil {
		c.rollbackLocked(p)
		return nil, false, err
	}
	return replies, c.commitLocked(p), nil
}

// play schedules playback. With req.Wait a busy refusal queues (§2.2).
func (ctx *connCtx) play(req wire.Play) (*wire.PlayOK, error) {
	c := ctx.c
	var s *session
	var parent core.ContentInfo
	var p *placement
	// One pass of the admission path, under c.mu: validate, plan, dispatch.
	err := c.waitQueue(req.Wait, obs.Event{Session: ctx.sessionID(), Content: req.Content}, func() (err error) {
		if s, err = ctx.requireSession(); err != nil {
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
		parent = rec.Info
		// The IDs are issued by the counters record dispatch journals; a
		// pass that stops short of it has issued none.
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
			ids.NextStream++
			demands[i] = demand{a: &activeStream{
				id: core.StreamID(ids.NextStream), group: ids.NextGroup, session: s.id,
				content: part.Info.Name, typ: part.Info.Type,
				spec: core.StreamSpec{
					Stream:    core.StreamID(ids.NextStream),
					Group:     ids.NextGroup,
					GroupSize: len(parts),
					Content:   part.Info.Name,
					Type:      part.Info.Type,
					Protocol:  t.Protocol,
					Class:     t.Class,
					Rate:      t.Bandwidth,
					DestAddr:  data,
					CtrlAddr:  ctrl,
					ClientTCP: req.ControlAddr,
				},
			}}
		}
		if p = c.planLocked(demands, cands); p == nil {
			// Every replica is out of bandwidth, background copies
			// included. Plan another replica: by the time it commits, this
			// queued play re-runs and finds the new candidate.
			for _, part := range parts {
				c.planReplicationLocked(part)
			}
			return busy("%w: no replica of %q has bandwidth", core.ErrNoResources, req.Content)
		}
		// A fresh play does not queue behind a failed start: the client
		// hears of it and decides.
		if _, _, err := c.dispatchLocked(p, admindb.SetCounters(ids)); err != nil {
			return fmt.Errorf("coordinator: starting stream on %q: %w", p.m.id, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	group := p.specs[0].Group
	c.om.admitted.Inc()
	c.om.dispatched.Add(int64(len(p.specs)))
	c.event(obs.Event{Kind: obs.EvAdmit, Session: uint64(s.id), Group: group,
		MSU: string(p.m.id), Content: req.Content, Disk: -1})
	out := &wire.PlayOK{Group: group, MSU: p.m.id, Length: parent.Length, Size: parent.Size}
	for _, spec := range p.specs {
		c.event(obs.Event{Kind: obs.EvDispatch, Session: uint64(s.id), Group: group,
			Stream: uint64(spec.Stream), MSU: string(p.m.id), Disk: spec.Disk, Content: spec.Content})
		out.Streams = append(out.Streams, wire.StreamInfo{Stream: spec.Stream, Content: spec.Content, Type: spec.Type})
	}
	return out, nil
}

// record schedules a recording: it needs an MSU with disk bandwidth and
// space for every component (§2.2: "It must schedule the request on an
// MSU that has both disk space and bandwidth available").
func (ctx *connCtx) record(req wire.Record) (*wire.RecordOK, error) {
	c := ctx.c
	var p *placement
	var replies []wire.StartStreamOK
	// One pass of the admission path, under c.mu: validate, plan, dispatch.
	err := c.waitQueue(req.Wait, obs.Event{Session: ctx.sessionID(), Content: req.Content}, func() error {
		s, err := ctx.requireSession()
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
		if t.Composite() {
			types = t.Components
		}
		ids := c.db.Counters()
		ids.NextGroup++
		group := ids.NextGroup
		demands := make([]demand, len(types))
		names := make([]string, len(types))
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
			ids.NextStream++
			names[i] = name
			demands[i] = demand{
				a: &activeStream{
					id: core.StreamID(ids.NextStream), group: group, session: s.id,
					content: name, typ: typ, record: true,
					spec: core.StreamSpec{
						Stream:    core.StreamID(ids.NextStream),
						Group:     group,
						GroupSize: len(types),
						Content:   name,
						Type:      typ,
						Protocol:  ct.Protocol,
						Class:     ct.Class,
						Rate:      ct.Bandwidth,
						ClientTCP: req.ControlAddr,
						Record:    true,
						Estimate:  req.Estimate,
					},
				},
				blocks: func(blockSize int) int64 { return blocksForEstimate(ct, req.Estimate, blockSize) },
			}
		}
		if p = c.planLocked(demands, c.recordCandidatesLocked()); p == nil {
			return busy("%w: no MSU with bandwidth and space", core.ErrNoResources)
		}
		if t.Composite() {
			// Once every component commits, the parent is published.
			waiting := make(map[string]bool, len(names))
			for _, n := range names {
				waiting[n] = true
			}
			c.pending[group] = &pendingComposite{parent: req.Content, typ: req.Type, waiting: waiting}
		}
		// Journal the recording as in flight: a Coordinator that crashes
		// from here until the last component commits finds the entry at
		// restart and reports the recording lost. The entry is in the
		// database before dispatch drops c.mu, where msuDown settles it.
		replies, _, err = c.dispatchLocked(p, admindb.SetCounters(ids),
			admindb.PutRecording(admindb.PendingRecording{Group: group, MSU: p.m.id, Contents: names}))
		if err != nil {
			delete(c.pending, group)
			c.apply(admindb.DeleteRecording(group)) //nolint:errcheck // counted and logged inside; an unsettled entry is re-reported lost after the next restart
			return fmt.Errorf("coordinator: starting recording on %q: %w", p.m.id, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.om.records.Inc()
	out := &wire.RecordOK{Group: p.specs[0].Group, MSU: p.m.id}
	for i, spec := range p.specs {
		out.Streams = append(out.Streams, wire.RecordStream{
			Stream: spec.Stream, Content: spec.Content, Type: spec.Type,
			DataAddr: replies[i].DataAddr, CtrlAddr: replies[i].CtrlAddr,
		})
		out.Reserved += spec.Reserved
	}
	return out, nil
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
