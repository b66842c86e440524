package msu

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"calliope/internal/cache"
	"calliope/internal/core"
	"calliope/internal/ibtree"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
	"calliope/internal/queue"
)

// stream is one active play or record stream on the MSU.
type stream struct {
	m     *MSU
	spec  core.StreamSpec
	group *group

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

	mu    sync.Mutex
	speed core.Speed
	pos   time.Duration // position in normal-rate coordinates
	eof   bool
	endC  chan struct{} // closed at the cue's end (ended)

	// flow is what the stream shares with the MSU's sender. The rest of
	// delivery is the stream's disk process (run), from the first cue to
	// teardown: it takes the VCR commands on cmds and acks each on acked,
	// and done closes when it ends. The fields after done are its own: the
	// cue playing, a command that cut it short, and the name the cache
	// tracks the stream under ("" while it does not).
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
// from a position in its own time — pause, or end.
type command struct {
	op     int
	tree   *ibtree.Tree
	file   msufs.StoreFile
	cname  string // the cache's key: the name of the file read
	speed  core.Speed
	from   time.Duration
	normal time.Duration // from, in normal-rate coordinates
}

const (
	opPlay = iota
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
		speed:  core.Normal,
		cmds:   make(chan command),
		acked:  make(chan struct{}),
	}
	s.flow.init(s, m.send, &m.obs)
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
	return s, nil
}

// teardown stops all activity, settles a recording and closes sockets.
// Then every packet it sent is counted, for group.quit's cache report.
func (s *stream) teardown() {
	if s.done != nil {
		s.cmds <- command{op: opQuit}
		<-s.done
	}
	if s.rec != nil {
		s.rec.finish()
	}
	if s.dataConn != nil {
		s.dataConn.Close()
	}
	if s.ctrlConn != nil {
		s.ctrlConn.Close()
	}
}

// position reports the stream's normal-rate position.
func (s *stream) position() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

func (s *stream) speedName() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.speed.String()
}

func (s *stream) atEOF() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eof
}

// ended returns a channel closed once the stream is at the end of a cue
// (playerEOF): the one playing, or, paused at its end, the last.
func (s *stream) ended() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.endC == nil {
		s.endC = make(chan struct{})
		if s.eof {
			close(s.endC)
		}
	}
	return s.endC
}

// vcr applies one VCR command (§2.1): pause keeps the position, play
// resumes normal-rate delivery from it, seek repositions at the current
// speed, and a scan switches to the fast-forward or fast-backward
// companion file at the current frame (§2.3.1).
func (s *stream) vcr(op string, pos time.Duration) error {
	if s.spec.Record {
		return fmt.Errorf("%w: cannot %s a recording", core.ErrBadRequest, op)
	}
	s.mu.Lock()
	speed, at := s.speed, s.pos
	s.mu.Unlock()
	switch op {
	case "pause":
		s.command(command{op: opPause})
		return nil
	case "play":
		speed = core.Normal
	case "seek":
		at = min(max(pos, 0), s.length)
	case "fast-forward":
		speed = core.FastForward
	case "fast-backward":
		speed = core.FastBackward
	default:
		return fmt.Errorf("%w: vcr op %q", core.ErrBadRequest, op)
	}
	return s.playAt(speed, at)
}

// playAt has the disk process play at the given speed from the given
// normal-rate position; a scan with no companion is refused first.
func (s *stream) playAt(sp core.Speed, normalPos time.Duration) error {
	c := command{op: opPlay, tree: s.tree, file: s.file, cname: s.spec.Content, speed: sp, from: normalPos, normal: normalPos}
	if sp != core.Normal {
		// The cache indexes pages by the name of the file actually being
		// read: the companion here.
		c.cname, c.from = s.ffName, media.MapPosition(normalPos, s.every, true)
		if sp == core.FastBackward {
			c.cname, c.from = s.fbName, media.MapPositionBackward(normalPos, s.length, s.every)
		}
		if c.cname == "" {
			return fmt.Errorf("%w: %q", core.ErrNoFastFile, s.spec.Content)
		}
		ct, err := s.m.openContent(s.spec.Disk, c.cname)
		if err != nil {
			return fmt.Errorf("%w: companion %q: %v", core.ErrNoFastFile, c.cname, err)
		}
		c.tree, c.file = ct.tree, ct.file
	}
	s.command(c)
	return nil
}

// command hands c to the stream's disk process — starting it with c, the
// first time — and waits for the ack, by which the sender holds nothing of
// what was playing. Commands come one at a time (group.vcrMu).
func (s *stream) command(c command) {
	if s.done == nil {
		s.done = make(chan struct{})
		go s.run(c)
		return
	}
	s.cmds <- c
	<-s.acked
}

// run is the stream's disk process (§2.3), from its first cue to teardown.
// A command cuts the cue playing short — the reads staged are waited out
// and unpinned, the sender drops what is queued — before it is acked. One
// reservation in the disk's pool and one cache registration, keyed by the
// stream, serve every cue.
func (s *stream) run(c command) {
	defer close(s.done)
	s.m.pools[s.spec.Disk].Reserve(&s.res, pageBudget)
	f := newFetcher(s)
	playing := false
	for ack := false; ; ack = true {
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
		if ack {
			s.acked <- struct{}{}
		}
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
	if s.cache != nil && s.tracked != c.cname {
		s.untrack()
		s.cache.PlayerStart(c.cname, uint64(s.spec.Stream), c.tree.Meta().Pages)
		s.tracked = c.cname
	}
	s.mu.Lock()
	if s.eof {
		s.endC = nil // closed at the last cue's end
	}
	s.speed, s.pos, s.eof = c.speed, c.normal, false
	s.mu.Unlock()
	if s.group != nil {
		s.group.clearEOF()
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
// normal-rate position and stores it.
func (s *stream) updatePos(treeTime time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.speed {
	case core.FastForward:
		s.pos = media.MapPosition(treeTime, s.every, false)
	case core.FastBackward:
		s.pos = max(0, s.length-treeTime*time.Duration(s.every))
	default:
		s.pos = treeTime
	}
}

// playerEOF marks end-of-content, which the sender has reached.
func (s *stream) playerEOF() {
	s.mu.Lock()
	s.eof = true
	if s.speed == core.FastForward {
		s.pos = s.length
	} else if s.speed == core.FastBackward {
		s.pos = 0
	}
	if s.endC != nil {
		close(s.endC)
	}
	s.mu.Unlock()
	s.m.obs.eofs.Inc()
	if s.group != nil {
		s.group.memberEOF()
	}
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
			buf := page.Bytes()
			off, n := span.Start, span.Len
			ch, _, derr := protocol.DecodeStored(buf[off : off+n])
			if derr == nil {
				off, n = off+1, n-1 // skip the stored channel byte
			} else {
				// Content predating the channel framing: treat as data.
				ch = protocol.Data
			}
			page.Retain() // the descriptor's reference
			if !s.enqueue(descriptor{t: span.Time, ch: ch, page: page, off: off, n: n}) {
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
