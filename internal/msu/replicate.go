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
// next needed block, and publishes only after the whole file set is
// verified. The copy is a fileSet like any other write (content.go): no
// file carries an attribute until then, so nothing ever sees a
// half-replica; an abort — Coordinator order, content deletion, or MSU
// shutdown — removes every file, a crash leaves them to the next sweep.

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
	m   *MSU
	req wire.Replicate

	mu      sync.Mutex
	conn    net.Conn // live transfer connection, nil between dials
	aborted bool
	abortCh chan struct{} // closed on abort; interrupts retry sleeps

	// set holds every file this job created, in arrival order, files
	// their copy state. Only the job goroutine touches them once run starts.
	set   fileSet
	files map[string]*replFile
	bytes int64 // payload bytes written across all attempts
}

// replFile is one destination file mid-copy.
type replFile struct {
	file     msufs.StoreFile
	hdr      replicate.FileHeader // attrs withheld until publish
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
	if st, err := store.Stat(req.Content); err == nil && contentType(st) != "" {
		return fmt.Errorf("%w: %q already stored here", core.ErrBadRequest, req.Content)
	}
	job := &replJob{
		m: m, req: req, set: fileSet{m: m, disk: req.Disk, store: store},
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
	j.set.abort() //nolint:errcheck // best effort; a racing delete already removed it
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
	for _, name := range j.set.names {
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
	for _, name := range j.set.names {
		if !j.files[name].complete {
			return fmt.Errorf("source finished with %q incomplete", name)
		}
	}
	return nil
}

// openFile is the Receive sink factory: first sight of a file allocates
// it in the job's set; a resumed file must pick up exactly at its next
// needed block.
func (j *replJob) openFile(h replicate.FileHeader) (replicate.Sink, error) {
	if bs := j.set.store.BlockSize(); h.BlockSize != bs {
		return nil, fmt.Errorf("source block size %d, destination %d", h.BlockSize, bs)
	}
	rf := j.files[h.Name]
	if rf == nil {
		f, err := j.set.create(h.Name, h.Blocks*int64(h.BlockSize))
		if err != nil {
			return nil, fmt.Errorf("allocating %q: %w", h.Name, err)
		}
		rf = &replFile{file: f, hdr: h}
		j.files[h.Name] = rf
	}
	if h.StartBlock != rf.next {
		return nil, fmt.Errorf("%q resumes at block %d, need %d", h.Name, h.StartBlock, rf.next)
	}
	rf.hdr.Attrs = h.Attrs // latest attrs win on resume
	return rf, nil
}

// WriteBlock and Close make a replFile the copy engine's Sink.
func (s *replFile) WriteBlock(i int64, p []byte) error {
	if err := s.file.WriteBlock(i, p); err != nil {
		return err
	}
	s.next = i + 1
	return nil
}

func (s *replFile) Close() error {
	s.complete = true
	return nil
}

// commit makes the replica durable and visible. What can refuse it runs
// first, on the blocks as written: sizes against what the source sent,
// and a read-back the way a player would open the title — the IB-tree
// metadata must parse and its first page come back off the fresh blocks,
// through the volume's scheduler like any read beside live streams. Then
// the set is published, companions first: the title's own publishing
// write is where hello, plays and copies start seeing the replica.
func (j *replJob) commit() error {
	for _, name := range j.set.names {
		if rf := j.files[name]; rf.file.Size() != rf.hdr.Size {
			return fmt.Errorf("%q has %d bytes, source sent %d", name, rf.file.Size(), rf.hdr.Size)
		}
	}
	title := j.files[j.req.Content]
	// Would publishing what the source sent make the title content?
	if contentType(msufs.FileInfo{Committed: true, Attrs: title.hdr.Attrs}) == "" {
		return fmt.Errorf("source sent %q without a content type", j.req.Content)
	}
	blockSize := j.set.store.BlockSize()
	tree, err := treeFromAttrs(schedFile{title.file, j.m}, title.hdr.Attrs, blockSize)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	cur, err := tree.PageCursorAt(0)
	if err != nil {
		return fmt.Errorf("verify: seek: %w", err)
	}
	page0 := make([]byte, blockSize)
	if ok, err := cur.LoadPage(page0); err != nil || !ok {
		return fmt.Errorf("verify: first page unreadable (ok=%v): %w", ok, err)
	}
	for _, name := range j.set.names {
		if name != j.req.Content {
			if err := j.set.publish(j.files[name].file, j.files[name].hdr.Attrs); err != nil {
				return err
			}
		}
	}
	if err := j.set.publish(title.file, title.hdr.Attrs); err != nil {
		return err
	}
	j.m.keepHead(j.set.disk, j.req.Content, page0) // its first viewer starts from RAM
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
		j.set.abort() //nolint:errcheck // best effort; a racing delete already removed it
	default:
		m.logf("replication %d (%q): committed; done report lost (%v)", j.req.ID, j.req.Content, err)
	}
}
