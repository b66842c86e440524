package msu

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"calliope/internal/core"
	"calliope/internal/msufs"
	"calliope/internal/replicate"
	"calliope/internal/wire"
)

// The destination side of MSU-to-MSU replication: a Coordinator
// replicate order spawns a background pull job that dials the source's
// transfer port, writes the content through msufs into freshly
// allocated blocks, survives dropped connections by resuming at the
// next needed block, and commits only after the whole file set is
// verified. The partial copy carries no attributes at all until that
// commit, so registration (buildHello) and delivery can never see a
// half-replica; an abort — Coordinator order, content deletion, or MSU
// shutdown — frees every partially written block.

// replAttempts bounds transfer (re)dials before the job reports
// failure; replRetryBase spaces them.
const (
	replAttempts  = 3
	replRetryBase = 250 * time.Millisecond
)

// errReplAborted marks a job torn down on purpose (Coordinator abort or
// MSU shutdown): clean up silently, no failure report.
var errReplAborted = errors.New("msu: replication aborted")

// replJob is one inbound copy.
type replJob struct {
	m     *MSU
	req   wire.Replicate
	store msufs.Store

	mu      sync.Mutex
	conn    net.Conn // live transfer connection, nil between dials
	aborted bool
	abortCh chan struct{} // closed on abort; interrupts retry sleeps

	// files tracks every file this job created, by name, in arrival
	// order. Only the job goroutine touches the map once run starts.
	files map[string]*replFile
	order []string
	bytes int64 // payload bytes written across all attempts
}

// replFile is one destination file mid-copy.
type replFile struct {
	file     msufs.StoreFile
	hdr      replicate.FileHeader // attrs withheld until commit
	next     int64                // next block needed (resume point)
	complete bool
}

// handleReplicate acks a Coordinator replicate order and runs the copy
// in the background.
func (m *MSU) handleReplicate(req wire.Replicate) error {
	if req.Disk < 0 || req.Disk >= len(m.stores) {
		return fmt.Errorf("%w: disk %d of %d", core.ErrBadRequest, req.Disk, len(m.stores))
	}
	store := m.stores[req.Disk]
	if st, err := store.Stat(req.Content); err == nil && st.Attrs[AttrType] != "" {
		return fmt.Errorf("%w: %q already stored here", core.ErrBadRequest, req.Content)
	}
	job := &replJob{
		m: m, req: req, store: store,
		abortCh: make(chan struct{}),
		files:   make(map[string]*replFile),
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return core.ErrSessionClosed
	}
	if m.repl == nil {
		m.repl = make(map[uint64]*replJob)
	}
	if _, dup := m.repl[req.ID]; dup {
		m.mu.Unlock()
		return fmt.Errorf("%w: replication %d already running", core.ErrBadRequest, req.ID)
	}
	m.repl[req.ID] = job
	m.wg.Add(1)
	m.mu.Unlock()
	go job.run()
	return nil
}

// abortReplication tears down one job (or silently ignores an unknown
// id: the job may just have finished).
func (m *MSU) abortReplication(id uint64) {
	m.mu.Lock()
	job := m.repl[id]
	m.mu.Unlock()
	if job != nil {
		job.abort()
	}
}

// abortAllReplications severs every in-flight copy; Close calls it
// before waiting on the work group.
func (m *MSU) abortAllReplications() {
	m.mu.Lock()
	jobs := make([]*replJob, 0, len(m.repl))
	for _, j := range m.repl {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.abort()
	}
}

// abort flags the job and severs its current transfer connection, which
// unblocks the Receive loop with a read error.
func (j *replJob) abort() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.aborted {
		return
	}
	j.aborted = true
	close(j.abortCh)
	if j.conn != nil {
		j.conn.Close() //nolint:errcheck // severing; the job cleans up
	}
}

func (j *replJob) isAborted() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.aborted
}

// setConn swaps in the current transfer connection; false means the job
// was aborted while dialing and the caller must close conn itself.
func (j *replJob) setConn(conn net.Conn) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.aborted {
		return false
	}
	j.conn = conn
	return true
}

// run drives the copy to commit or cleanup, then reports to the
// Coordinator.
func (j *replJob) run() {
	m := j.m
	defer m.wg.Done()
	err := j.pull()
	if err == nil {
		err = j.commit()
	}
	m.mu.Lock()
	delete(m.repl, j.req.ID)
	m.mu.Unlock()
	if err == nil {
		j.report()
		return
	}
	j.cleanup()
	if errors.Is(err, errReplAborted) {
		m.logf("replication %d (%q): aborted, partial blocks freed", j.req.ID, j.req.Content)
		return
	}
	m.logf("replication %d (%q): %v", j.req.ID, j.req.Content, err)
	m.notifyCoordinator(wire.TypeReplicateFailed, wire.ReplicateFailed{
		ID: j.req.ID, Content: j.req.Content, Reason: err.Error(), Bytes: j.bytes,
	})
}

// pull runs transfer attempts until the file set is fully received.
func (j *replJob) pull() error {
	var err error
	for attempt := 0; attempt < replAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(replRetryBase << (attempt - 1))
			select {
			case <-j.abortCh:
				t.Stop()
				return errReplAborted
			case <-j.m.quit:
				t.Stop()
				return errReplAborted
			case <-t.C:
			}
		}
		if err = j.attempt(); err == nil {
			return nil
		}
		if j.isAborted() {
			return errReplAborted
		}
	}
	return err
}

// attempt dials the source and receives as much as it can; nil means
// the whole file set (main file plus companions) arrived and verified
// block counts.
func (j *replJob) attempt() error {
	m := j.m
	conn, err := m.cfg.Dial("tcp", j.req.Source)
	if err != nil {
		return fmt.Errorf("dialing source %s: %w", j.req.Source, err)
	}
	if !j.setConn(conn) {
		conn.Close() //nolint:errcheck // aborted while dialing
		return errReplAborted
	}
	defer func() {
		j.setConn(nil)
		conn.Close() //nolint:errcheck // second close after abort is fine
	}()
	req := replicate.Request{Content: j.req.Content, Rate: int64(j.req.Rate)}
	for _, name := range j.order {
		req.Resume = append(req.Resume, replicate.FileOffset{Name: name, NextBlock: j.files[name].next})
	}
	if err := replicate.WriteRequest(conn, req); err != nil {
		return fmt.Errorf("sending request: %w", err)
	}
	sum, err := replicate.Receive(conn, j.openFile)
	j.bytes += sum.Bytes
	if err != nil {
		return fmt.Errorf("receiving %q: %w", j.req.Content, err)
	}
	main := j.files[j.req.Content]
	if main == nil || !main.complete {
		return fmt.Errorf("source finished without sending %q", j.req.Content)
	}
	for _, name := range j.order {
		if !j.files[name].complete {
			return fmt.Errorf("source finished with %q incomplete", name)
		}
	}
	return nil
}

// openFile is the Receive sink factory: first sight of a file allocates
// it (with no attributes — invisible to registration until commit); a
// resumed file must pick up exactly at its next needed block.
func (j *replJob) openFile(h replicate.FileHeader) (replicate.Sink, error) {
	if h.BlockSize != j.store.BlockSize() {
		return nil, fmt.Errorf("source block size %d, destination %d", h.BlockSize, j.store.BlockSize())
	}
	rf := j.files[h.Name]
	if rf == nil {
		f, err := j.store.Create(h.Name, h.Blocks*int64(h.BlockSize), nil)
		if err != nil {
			return nil, fmt.Errorf("allocating %q: %w", h.Name, err)
		}
		rf = &replFile{file: f, hdr: h}
		j.files[h.Name] = rf
		j.order = append(j.order, h.Name)
	}
	if h.StartBlock != rf.next {
		return nil, fmt.Errorf("%q resumes at block %d, need %d", h.Name, h.StartBlock, rf.next)
	}
	rf.hdr.Attrs = h.Attrs // latest attrs win on resume
	return (*replSink)(rf), nil
}

// replSink adapts a replFile to the copy engine's Sink.
type replSink replFile

func (s *replSink) WriteBlock(i int64, p []byte) error {
	if err := s.file.WriteBlock(i, p); err != nil {
		return err
	}
	s.next = i + 1
	return nil
}

func (s *replSink) Close() error {
	s.complete = true
	return nil
}

// commit makes the replica durable and visible: trim and flush every
// file, re-open the main file's IB-tree from disk as the verification
// read-back, link the attributes, and set the content-type attribute
// last — the point at which registration starts declaring the replica.
func (j *replJob) commit() error {
	for _, name := range j.order {
		rf := j.files[name]
		if rf.file.Size() != rf.hdr.Size {
			return fmt.Errorf("%q has %d bytes, source sent %d", name, rf.file.Size(), rf.hdr.Size)
		}
		if err := rf.file.Commit(); err != nil {
			return fmt.Errorf("committing %q: %w", name, err)
		}
	}
	for _, name := range j.order {
		rf := j.files[name]
		for k, v := range rf.hdr.Attrs {
			if name == j.req.Content && k == AttrType {
				continue // the visibility bit comes last
			}
			if err := j.store.SetAttr(name, k, v); err != nil {
				return fmt.Errorf("attr %q on %q: %w", k, name, err)
			}
		}
	}
	// Verification: open the replica the way a player would — the
	// IB-tree metadata must parse and its first page must read back from
	// the freshly written blocks, through the volume's scheduler like
	// any other read beside live streams.
	c, err := j.m.openContent(j.req.Disk, j.req.Content)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	cur, err := c.tree.PageCursorAt(0)
	if err != nil {
		return fmt.Errorf("verify: seek: %w", err)
	}
	if ok, err := cur.LoadPage(make([]byte, j.store.BlockSize())); err != nil || !ok {
		return fmt.Errorf("verify: first page unreadable (ok=%v): %w", ok, err)
	}
	typ := j.files[j.req.Content].hdr.Attrs[AttrType]
	if typ == "" {
		return fmt.Errorf("source sent %q without a content type", j.req.Content)
	}
	if err := j.store.SetAttr(j.req.Content, AttrType, typ); err != nil {
		return fmt.Errorf("typing %q: %w", j.req.Content, err)
	}
	return nil
}

// report tells the Coordinator the replica is committed. The answer is
// the Coordinator's journal write: an application-level rejection means
// the content was deleted mid-copy, so the replica is removed again. A
// transport failure keeps the replica — the next registration hello
// declares it and the catalog reconciles.
func (j *replJob) report() {
	m := j.m
	done := wire.ReplicateDone{
		ID: j.req.ID, Content: j.req.Content, Type: j.req.Type,
		Disk: j.req.Disk, Size: j.req.Size, Length: j.req.Length,
		HasFast: j.req.HasFast, Bytes: j.bytes,
	}
	m.mu.Lock()
	peer := m.peer
	m.mu.Unlock()
	if peer == nil {
		m.logf("replication %d (%q): committed; coordinator link down, hello will declare it", j.req.ID, j.req.Content)
		return
	}
	err := peer.Call(wire.TypeReplicateDone, done, nil)
	switch {
	case err == nil:
		m.logf("replication %d (%q): committed (%d bytes)", j.req.ID, j.req.Content, j.bytes)
	case errors.Is(err, wire.ErrRemote):
		// The Coordinator refused the location — the content was
		// deleted while we copied. Take the replica back out.
		m.logf("replication %d (%q): rejected (%v), removing replica", j.req.ID, j.req.Content, err)
		j.cleanup()
	default:
		m.logf("replication %d (%q): committed; done report lost (%v)", j.req.ID, j.req.Content, err)
	}
}

// cleanup removes every file the job created, freeing its blocks, and
// purges what RAM holds of them.
func (j *replJob) cleanup() {
	for _, name := range j.order {
		j.store.Remove(name) //nolint:errcheck // best effort; a racing delete already removed it
		j.m.forgetFile(j.req.Disk, name)
	}
}
