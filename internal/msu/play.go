package msu

import (
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"calliope/internal/cache"
	"calliope/internal/core"
	"calliope/internal/ibtree"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
	"calliope/internal/queue"
	"calliope/internal/wire"
)

// stream is one active play or record stream on the MSU.
type stream struct {
	m    *MSU
	spec core.StreamSpec

	// Playback state.
	tree     *ibtree.Tree
	file     msufs.StoreFile // tree's, for page reads through the schedulers
	length   time.Duration
	every    int // fast-scan filter interval
	ffName   string
	fbName   string
	dataConn *net.UDPConn
	ctrlConn *net.UDPConn
	// cache is the disk's RAM interval cache over its pool (nil when off):
	// a hit delivers straight out of the cached page.
	cache *cache.Cache

	// pos is the position in normal-rate coordinates: the sender stores it
	// as packets leave, the disk process at a cue's start and end, each
	// after the other has handed the stream over (reposition, playerEOF).
	pos atomic.Int64
	// ends is nudged at each cue's end; nil but for a measurement stream,
	// which has no group to tell (openBenchStream).
	ends chan struct{}

	// flow is what the stream shares with the MSU's sender. The rest of
	// delivery is the stream's disk process (run), from the first cue to
	// teardown: it takes the VCR commands on cmds and acks each on acked,
	// and done closes when it ends. The fields after done are its own: the
	// cue playing (which the sender reads after taking the cue's
	// descriptors off the ring, and the shell after the command's ack), a
	// command that cut it short, and the name the cache tracks the stream
	// under ("" while it does not).
	flow
	cmds    chan command
	acked   chan struct{}
	done    chan struct{}
	cue     command
	next    command
	tracked string

	// Recording state.
	rec *recorder
}

// command is what a stream's disk process is told: play a cue — a file,
// from a position in its own time — pause, or end. A cue carries its
// group's number for it (engine.group.cues), which its end reports.
type command struct {
	op     int
	n      uint64
	tree   *ibtree.Tree
	file   msufs.StoreFile
	cname  string // the cache's key: the name of the file read
	speed  core.Speed
	from   time.Duration
	normal time.Duration // from, in normal-rate coordinates
}

const (
	opNone = iota // nothing to do: a recorder's begin
	opPlay
	opPause
	opQuit
)

// newPlayStream opens content and the client-facing sockets; delivery
// starts when the group is complete (group.begin).
func (m *MSU) newPlayStream(spec core.StreamSpec, vol msufs.Store) (*stream, error) {
	st, err := vol.Stat(spec.Content)
	if err != nil || contentType(st) == "" {
		return nil, fmt.Errorf("%w: %q", core.ErrNoSuchContent, spec.Content)
	}
	c, err := m.openContent(spec.Disk, spec.Content)
	if err != nil {
		return nil, err
	}
	every := media.DefaultFilterEvery
	if raw, ok := st.Attrs[AttrEvery]; ok {
		if n, err := strconv.Atoi(raw); err == nil && n > 0 {
			every = n
		}
	}
	s := &stream{
		m:      m,
		spec:   spec,
		tree:   c.tree,
		file:   c.file,
		length: c.tree.Length(), // what the one writer put in AttrLength
		every:  every,
		ffName: st.Attrs[AttrFastFwd],
		fbName: st.Attrs[AttrFastBack],
		cache:  m.cacheFor(spec.Disk),
		cmds:   make(chan command),
		acked:  make(chan struct{}),
	}
	dest, err := net.ResolveUDPAddr("udp", spec.DestAddr)
	if err != nil {
		return nil, fmt.Errorf("%w: data address %q: %v", core.ErrBadRequest, spec.DestAddr, err)
	}
	s.dataConn, err = net.DialUDP("udp", nil, dest)
	if err != nil {
		return nil, fmt.Errorf("msu: opening data socket: %w", err)
	}
	if spec.CtrlAddr != "" {
		caddr, err := net.ResolveUDPAddr("udp", spec.CtrlAddr)
		if err != nil {
			s.dataConn.Close()
			return nil, fmt.Errorf("%w: control address %q: %v", core.ErrBadRequest, spec.CtrlAddr, err)
		}
		s.ctrlConn, err = net.DialUDP("udp", nil, caddr)
		if err != nil {
			s.dataConn.Close()
			return nil, fmt.Errorf("msu: opening control socket: %w", err)
		}
	}
	s.flow.init(s, m.send, &m.obs)
	return s, nil
}

// teardown stops all activity, settles a recording and closes sockets.
// Then every packet it sent is counted, for the report its disk sends if
// the stream leaves it idle. A recording it publishes is returned.
func (s *stream) teardown() (done *wire.RecordingDone) {
	if s.done != nil {
		s.cmds <- command{op: opQuit}
		<-s.done
	}
	if s.ring != nil {
		// Empty and out of the sender's heap: the quit flushed it, or no
		// disk process ever ran to fill it.
		rings.Put(s.ring)
		s.ring = nil
	}
	if s.rec != nil {
		done = s.rec.finish()
	}
	if s.dataConn != nil {
		s.dataConn.Close()
	}
	if s.ctrlConn != nil {
		s.ctrlConn.Close()
	}
	return done
}

// position reports the stream's normal-rate position.
func (s *stream) position() time.Duration { return time.Duration(s.pos.Load()) }

// beginOp is a group's first start, which no client sends: a player plays
// from 0, and a recorder runs as soon as packets arrive.
const beginOp = "begin"

// vcr applies VCR op to a group's members, to all of them or to none:
// each member's command is resolved before any is given, so a member that
// refuses the op leaves every member as it was. A cue it starts is cue n.
func vcr(ss []*stream, op string, pos time.Duration, n uint64) error {
	var buf [4]command
	cs := buf[:0]
	for _, s := range ss {
		c, err := s.resolve(op, pos, n)
		if err != nil {
			return fmt.Errorf("stream %d: %w", s.spec.Stream, err)
		}
		cs = append(cs, c)
	}
	for i, s := range ss {
		if cs[i].op != opNone {
			s.command(cs[i])
		}
	}
	return nil
}

// resolve turns one VCR command (§2.1) into what the stream's disk process
// is told: pause keeps the position, play resumes normal-rate delivery
// from it, seek repositions at the current speed, and a scan switches to
// the fast-forward or fast-backward companion file at the current frame
// (§2.3.1). The cue it reads was set before the last command's ack.
func (s *stream) resolve(op string, pos time.Duration, n uint64) (command, error) {
	switch {
	case op == beginOp && s.spec.Record:
		return command{}, nil // opNone: a recorder runs as soon as packets arrive
	case op == beginOp:
		return s.playAt(core.Normal, 0, n)
	case s.spec.Record:
		return command{}, fmt.Errorf("%w: cannot %s a recording", core.ErrBadRequest, op)
	}
	speed, at := s.cue.speed, s.position()
	switch op {
	case wire.VCRPause:
		return command{op: opPause}, nil
	case wire.VCRPlay:
		speed = core.Normal
	case wire.VCRSeek:
		at = min(max(pos, 0), s.length)
	case wire.VCRFastForward:
		speed = core.FastForward
	case wire.VCRFastBackward:
		speed = core.FastBackward
	default:
		return command{}, fmt.Errorf("%w: vcr op %q", core.ErrBadRequest, op)
	}
	return s.playAt(speed, at, n)
}

// playAt is cue n at the given speed from the given normal-rate position;
// a scan with no companion is refused.
func (s *stream) playAt(sp core.Speed, normalPos time.Duration, n uint64) (command, error) {
	c := command{op: opPlay, n: n, tree: s.tree, file: s.file, cname: s.spec.Content, speed: sp, from: normalPos, normal: normalPos}
	if sp != core.Normal {
		// The cache indexes pages by the name of the file actually being
		// read: the companion here.
		c.cname, c.from = s.ffName, media.MapPosition(normalPos, s.every, true)
		if sp == core.FastBackward {
			c.cname, c.from = s.fbName, media.MapPositionBackward(normalPos, s.length, s.every)
		}
		if c.cname == "" {
			return command{}, fmt.Errorf("%w: %q", core.ErrNoFastFile, s.spec.Content)
		}
		ct, err := s.m.openContent(s.spec.Disk, c.cname)
		if err != nil {
			return command{}, fmt.Errorf("%w: companion %q: %v", core.ErrNoFastFile, c.cname, err)
		}
		c.tree, c.file = ct.tree, ct.file
	}
	return c, nil
}

// command hands c to the stream's disk process — starting it, the first
// time — and waits for the ack, by which the disk process has set up what
// c plays and the sender holds nothing of what played before. Commands
// come one at a time: the MSU's core has a group's members take one at a
// time (engine.run).
func (s *stream) command(c command) {
	if s.done == nil {
		s.done = make(chan struct{})
		go s.run()
	}
	s.cmds <- c
	<-s.acked
}

// run is the stream's disk process (§2.3), from its first cue to teardown.
// A command cuts the cue playing short — the reads staged are waited out
// and unpinned, the sender drops what is queued — before it is acked. One
// reservation in the disk's pool and one cache registration, keyed by the
// stream, serve every cue.
func (s *stream) run() {
	defer close(s.done)
	s.m.pools[s.spec.Disk].Reserve(&s.res, pageBudget)
	f := newFetcher(s)
	playing := false
	c := <-s.cmds
	for {
		if playing {
			f.abort()
			s.m.send.flush(&s.flow)
			select {
			case <-s.atEnd: // an end of content the command overtook
			default:
			}
		}
		playing = c.op == opPlay
		switch c.op {
		case opPlay:
			s.reposition(c, f)
		case opPause:
			s.untrack() // paused, the stream holds no place in the title
		case opQuit:
			s.untrack()
			s.res.Close() // nothing is pinned: the fetcher and the ring are empty
			return
		}
		s.acked <- struct{}{}
		if playing {
			c = s.deliver(f)
		} else {
			c = <-s.cmds
		}
	}
}

// reposition starts playing c: the budget's ramp starts again at one page
// (fetcher.restart), and the cache tracks the stream under the file read.
func (s *stream) reposition(c command, f *fetcher) {
	s.cue = c
	s.epoch, s.from = time.Now(), c.from
	s.sent.Store(0)
	s.pos.Store(int64(c.normal))
	if s.cache != nil && s.tracked != c.cname {
		s.untrack()
		s.cache.PlayerStart(c.cname, uint64(s.spec.Stream), c.tree.Meta().Pages)
		s.tracked = c.cname
	}
	f.restart()
}

// untrack leaves the cache's interval tracking.
func (s *stream) untrack() {
	if s.tracked != "" {
		s.cache.PlayerStop(s.tracked, uint64(s.spec.Stream))
		s.tracked = ""
	}
}

// updatePos converts a delivery time in the file being read to a
// normal-rate position and stores it. The sender's: it reads the cue after
// taking the cue's descriptors off the ring.
func (s *stream) updatePos(treeTime time.Duration) {
	pos := treeTime
	switch s.cue.speed {
	case core.FastForward:
		pos = media.MapPosition(treeTime, s.every, false)
	case core.FastBackward:
		pos = max(0, s.length-treeTime*time.Duration(s.every))
	}
	s.pos.Store(int64(pos))
}

// playerEOF marks end-of-content, which the sender has reached and handed
// back: a scan stands at the end it ran to.
func (s *stream) playerEOF() {
	switch s.cue.speed {
	case core.FastForward:
		s.pos.Store(int64(s.length))
	case core.FastBackward:
		s.pos.Store(0)
	}
	nudge(s.ends)
	s.m.obs.eofs.Inc()
	s.m.step(func(time.Time) { s.m.eng.ended(s.spec.Stream, s.cue.n) })
}

// descriptor flows through the shared-memory queue from a stream's disk
// process to the sender. Its payload is page.Bytes()[off : off+n], never
// copied: each descriptor holds one reference on its page, released after
// the send. A page's packets are followed by a done descriptor carrying the
// disk process's own hold, so the page returns to its pool, and to the
// budget, when its last packet has left the socket.
type descriptor struct {
	t    time.Duration
	ch   protocol.Channel
	page *queue.PageRef // nil on EOF markers
	off  int
	n    int
	eof  bool
	done bool // no packet: page has been cut and sent in full
}

// queueDepth is the SPSC capacity between the disk process and the sender.
const queueDepth = 512

// readAheadPages is the depth of the prefetch ring: how many page reads
// one stream keeps staged at the schedulers at most.
const readAheadPages = 4

// pageBudget bounds the disk process's lead over the sender in pages,
// whatever the packet size: every page a stream pins — staged, being cut,
// or referenced from the ring; read or cache hit alike — counts. It is the
// paper's double buffer plus the ring, and what a stream reserves in its
// disk's pool, so room in the budget is a page to hand (queue.PagePool).
const pageBudget = readAheadPages + 2

// lendPages is how far past its reservation a stream may pin on a
// contended disk, with pages its disk's pool lends out of the cache's
// share (fetcher.budget): while the sender holds the pages the reservation
// covers for pacing, the elevator still finds the stream's next pages
// queued behind the one it takes, and reads them as a run.
const lendPages = 2

// headFraction is how much of a cue's first page is in RAM ahead of the
// rest — read first, or kept as the title's head (content.go) — and cut
// while the rest arrives (fetcher.issueOne, fetcher.tail): an eighth, which
// plays for longer than the rest takes off the platter (a 256 KB page at
// 6 Mbit/s: 32 KB play for 44 ms, 224 KB transfer in 29).
const headFraction = 8

// recv parks the disk process on c until it yields, or until a command
// arrives: ok is false then, and the command is in s.next.
func recv[T any](s *stream, c chan T) (v T, ok bool) {
	select {
	case v = <-c:
		return v, true
	case s.next = <-s.cmds:
		return v, false
	}
}

// enqueue puts d on the ring, parked while it is full; false, with d
// dropped, if a command came first.
func (s *stream) enqueue(d descriptor) bool {
	for !s.put(d) {
		if _, ok := recv(s, s.space); !ok {
			s.drop(d)
			return false
		}
	}
	return true
}

// deliver plays the cue: it reads whole IB-tree pages into pooled
// refcounted buffers (the first from its head on: fetcher.issueOne,
// fetcher.tail) and queues descriptors aliasing them (read-ahead / double
// buffering), parked on a channel while the ring is full or the budget
// spent. It returns the command that stops it.
func (s *stream) deliver(f *fetcher) command {
	fail := func(what string, err error) command {
		s.m.logf("stream %d: %s: %v", s.spec.Stream, what, err)
		return s.finish(descriptor{eof: true}) // t=0: reported at once
	}
	cur, err := s.cue.tree.PageCursorAt(s.from)
	if err != nil {
		return fail("seek", err)
	}
	// The EOF marker goes one packet interval after the final packet, so
	// the sender paces the end like any other item.
	var lastT, gap time.Duration
	for {
		next := cur.NextPage()
		if next < 0 {
			slack := gap
			if slack <= 0 {
				slack = 2 * time.Millisecond
			}
			return s.finish(descriptor{t: lastT + slack, eof: true})
		}
		page, err := f.nextPage(cur, next)
		if err != nil {
			return fail("read", err)
		}
		if page == nil {
			return s.next // stopped while waiting for the page or for the budget
		}
		if s.tracked != "" {
			s.cache.PlayerAt(s.tracked, uint64(s.spec.Stream), next)
		}
		for {
			span, ok, err := cur.Next()
			if err == nil && !ok && f.half {
				// A first page, cut as far as its head reaches (or, a short
				// last page, to its end inside the head): what was cut is
				// on its way out, and the rest of the page follows — the
				// page is not the disk process's to hand on until it has.
				if err = f.tail(cur); err == nil {
					continue
				}
			}
			if err != nil {
				f.giveBack(page)
				return fail("read", err)
			}
			if !ok {
				break // page fully cut into descriptors
			}
			// Every writer frames its records (packetWriter.append), so
			// one that does not decode was damaged: the cue ends there,
			// as on a read error, and none of the record is sent.
			ch, _, err := protocol.DecodeStored(page.Bytes()[span.Start : span.Start+span.Len])
			if err != nil {
				f.giveBack(page)
				return fail(fmt.Sprintf("record at %v", span.Time), err)
			}
			page.Retain() // the descriptor's reference
			// The descriptor skips the stored channel byte.
			if !s.enqueue(descriptor{t: span.Time, ch: ch, page: page, off: span.Start + 1, n: span.Len - 1}) {
				f.giveBack(page) // drop the disk process's own hold too
				return s.next
			}
			if d := span.Time - lastT; d > 0 {
				gap = d
			}
			lastT = span.Time
		}
		// The disk process's hold follows the page's packets through the
		// queue: the sender drops it, and with it the page's place in the
		// budget, when it has sent the last of them.
		if !s.enqueue(descriptor{page: page, done: true}) {
			return s.next
		}
	}
}

// finish queues the end of the cue and waits for a command; playerEOF runs
// here when the sender reaches the end.
func (s *stream) finish(d descriptor) command {
	if !s.enqueue(d) {
		return s.next
	}
	for {
		if _, ok := recv(s, s.atEnd); !ok {
			return s.next
		}
		s.playerEOF()
	}
}

// send is the sender's I/O: one packet written straight out of its page,
// and counted. The cue's first closes its delivery_startup_seconds.
func (s *stream) send(d descriptor, late time.Duration) {
	conn := s.dataConn
	if d.ch == protocol.Control && s.ctrlConn != nil {
		conn = s.ctrlConn
	}
	if _, err := conn.Write(d.page.Bytes()[d.off : d.off+d.n]); err != nil {
		s.m.logf("stream %d: send: %v", s.spec.Stream, err)
	}
	d.page.Release()
	nudge(s.space) // a ring slot is free
	om := s.om     // pre-registered handles: atomics only, 0 allocs/op
	if !s.started {
		s.started = true
		om.startup.Observe(time.Since(s.epoch))
	}
	om.packets.Inc()
	om.bytes.Add(int64(d.n))
	om.lateness.Observe(late)
	s.updatePos(d.t)
}
