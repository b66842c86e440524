package msu

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"calliope/internal/cache"
	"calliope/internal/core"
	"calliope/internal/ibtree"
	"calliope/internal/iosched"
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
	tree *ibtree.Tree
	// file is the content's store file, kept alongside tree so page
	// reads can be located on a physical volume and submitted to its
	// I/O scheduler.
	file     msufs.StoreFile
	length   time.Duration
	every    int // fast-scan filter interval
	ffName   string
	fbName   string
	dataConn *net.UDPConn
	ctrlConn *net.UDPConn

	mu     sync.Mutex
	speed  core.Speed
	pos    time.Duration // position in normal-rate coordinates
	player *player
	eof    bool
	// ring and slots are the descriptor queue and the fetch slots of the
	// stream's player. Its players run one at a time (group.vcrMu, and a
	// stop waits out both of a player's processes), so the first makes
	// them and every VCR command's player after it reuses them. headC
	// completes the head of a first page read head first; the first player
	// to read one makes it (fetcher.issueOne).
	ring  *queue.SPSC[descriptor]
	slots []fetchSlot
	headC chan *iosched.Request

	// Recording state.
	rec *recorder
}

// newPlayStream opens content and the client-facing sockets; delivery
// starts when the group is complete (begin).
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
		speed:  core.Normal,
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
	return s, nil
}

// begin starts delivery (or recording) once the group is complete, ahead
// of its control connection (group.connectClient).
func (s *stream) begin() error {
	if s.spec.Record {
		return nil // recorders run as soon as packets arrive
	}
	return s.playAt(core.Normal, 0)
}

// teardown stops all activity, settles a recording and closes sockets.
// A play stream sends its one cache report here, after its last player
// has stopped, so the report counts every packet the stream sent and
// leaves before the group's StreamEnded, which the Coordinator's merge
// relies on.
func (s *stream) teardown() {
	s.stopPlayer()
	if s.rec != nil {
		s.rec.finish()
	}
	if !s.spec.Record {
		s.m.reportCache(s.spec.Disk)
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

// stopPlayer cancels the current delivery goroutines and waits for
// them to drain.
func (s *stream) stopPlayer() {
	s.mu.Lock()
	p := s.player
	s.player = nil
	s.mu.Unlock()
	if p != nil {
		p.stop()
	}
}

// pause halts delivery, keeping the position (§2.1 VCR).
func (s *stream) pause() error {
	if s.spec.Record {
		return fmt.Errorf("%w: cannot pause a recording", core.ErrBadRequest)
	}
	s.stopPlayer()
	return nil
}

// resume restarts normal-rate delivery from the current position.
func (s *stream) resume() error {
	if s.spec.Record {
		return fmt.Errorf("%w: cannot resume a recording", core.ErrBadRequest)
	}
	s.stopPlayer()
	s.mu.Lock()
	pos := s.pos
	s.mu.Unlock()
	if s.group != nil {
		s.group.clearEOF()
	}
	return s.playAt(core.Normal, pos)
}

// seek repositions the stream, staying at the current speed.
func (s *stream) seek(pos time.Duration) error {
	if s.spec.Record {
		return fmt.Errorf("%w: cannot seek a recording", core.ErrBadRequest)
	}
	if pos < 0 {
		pos = 0
	}
	if pos > s.length {
		pos = s.length
	}
	s.stopPlayer()
	s.mu.Lock()
	speed := s.speed
	s.pos = pos
	s.mu.Unlock()
	if s.group != nil {
		s.group.clearEOF()
	}
	return s.playAt(speed, pos)
}

// setSpeed switches to the fast-forward or fast-backward companion
// file at the position corresponding to the current frame (§2.3.1).
func (s *stream) setSpeed(sp core.Speed) error {
	if s.spec.Record {
		return fmt.Errorf("%w: cannot scan a recording", core.ErrBadRequest)
	}
	s.stopPlayer()
	s.mu.Lock()
	pos := s.pos
	s.mu.Unlock()
	if s.group != nil {
		s.group.clearEOF()
	}
	return s.playAt(sp, pos)
}

// fastTree returns a fast-scan companion file's shared tree and the
// store file backing it (for scheduler-path page location).
func (s *stream) fastTree(name string) (*ibtree.Tree, msufs.StoreFile, error) {
	if name == "" {
		return nil, nil, fmt.Errorf("%w: %q", core.ErrNoFastFile, s.spec.Content)
	}
	c, err := s.m.openContent(s.spec.Disk, name)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: companion %q: %v", core.ErrNoFastFile, name, err)
	}
	return c.tree, c.file, nil
}

// playAt launches delivery at the given speed from the given
// normal-rate position.
func (s *stream) playAt(sp core.Speed, normalPos time.Duration) error {
	born := time.Now()
	var tree *ibtree.Tree
	var file msufs.StoreFile
	var treePos time.Duration
	switch sp {
	case core.Normal:
		tree = s.tree
		file = s.file
		treePos = normalPos
	case core.FastForward:
		t, f, err := s.fastTree(s.ffName)
		if err != nil {
			return err
		}
		tree, file = t, f
		treePos = media.MapPosition(normalPos, s.every, true)
	case core.FastBackward:
		t, f, err := s.fastTree(s.fbName)
		if err != nil {
			return err
		}
		tree, file = t, f
		treePos = media.MapPositionBackward(normalPos, s.length, s.every)
	default:
		return fmt.Errorf("%w: speed %v", core.ErrBadRequest, sp)
	}
	// The cache indexes pages by the name of the file actually being
	// read: the content itself at normal speed, its fast-scan
	// companion otherwise.
	cname := s.spec.Content
	switch sp {
	case core.FastForward:
		cname = s.ffName
	case core.FastBackward:
		cname = s.fbName
	}
	p := &player{
		s:        s,
		tree:     tree,
		file:     file,
		speed:    sp,
		startPos: treePos,
		pool:     s.m.pools[s.spec.Disk],
		cache:    s.m.cacheFor(s.spec.Disk),
		cname:    cname,
		id:       playerIDs.Add(1),
		born:     born,
		cancel:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.mu.Lock()
	s.speed = sp
	s.pos = normalPos
	s.eof = false
	s.player = p
	s.mu.Unlock()
	p.start()
	return nil
}

// updatePos converts a tree-file delivery time to a normal-rate
// position and stores it.
func (s *stream) updatePos(sp core.Speed, treeTime time.Duration) {
	var pos time.Duration
	switch sp {
	case core.FastForward:
		pos = media.MapPosition(treeTime, s.every, false)
	case core.FastBackward:
		pos = s.length - treeTime*time.Duration(s.every)
		if pos < 0 {
			pos = 0
		}
	default:
		pos = treeTime
	}
	s.mu.Lock()
	s.pos = pos
	s.mu.Unlock()
}

// playerEOF marks end-of-content.
func (s *stream) playerEOF(p *player) {
	s.mu.Lock()
	if s.player != p {
		s.mu.Unlock()
		return // superseded by a VCR command
	}
	s.eof = true
	if p.speed == core.FastForward {
		s.pos = s.length
	} else if p.speed == core.FastBackward {
		s.pos = 0
	}
	s.mu.Unlock()
	s.m.obs.eofs.Inc()
	// A finished viewer changes the content's heat: tell the
	// Coordinator so queued plays of now-warm content can admit.
	s.m.reportCache(s.spec.Disk)
	if s.group != nil {
		s.group.memberEOF()
	}
}

// descriptor flows through the shared-memory queue from the disk
// goroutine to the network goroutine. It carries no payload bytes: the
// payload is page.Bytes()[off : off+n], aliasing the refcounted page
// buffer the disk goroutine read the whole IB-tree page into. Each
// descriptor holds one reference on its page; the network goroutine
// releases it after the send. A page's packets are followed by one done
// descriptor carrying the disk process's own hold on it, so the page
// returns to its pool, and to the player's page budget, when the last
// packet cut from it has left the socket.
type descriptor struct {
	t    time.Duration
	ch   protocol.Channel
	page *queue.PageRef // nil on EOF markers
	off  int
	n    int
	eof  bool
	done bool // no packet: page has been cut and sent in full
}

// player runs one delivery session, mirroring §2.3's MSU: a disk
// process reading whole 256 KB blocks into buffers it manages itself (the
// first one from its head on: fetcher.issueOne, fetcher.tail), a
// network process transmitting packets straight out of those buffers,
// and a shared-memory queue of descriptors between them. Pages recycle
// through the disk's refcounted pool and payloads are never copied, so
// the steady-state path from disk read to UDP write performs zero copies
// and zero allocations.
type player struct {
	s    *stream
	tree *ibtree.Tree
	// file backs tree on the store: the prefetch ring (fetcher) reads its
	// pages through the volumes' schedulers.
	file     msufs.StoreFile
	speed    core.Speed
	startPos time.Duration
	// pool is the disk's page pool, which every page the player reads or
	// pins comes from, and res the player's share of it (pageBudget).
	pool *queue.PagePool
	res  queue.Reservation
	// cache is the disk's shared RAM interval cache over pool (nil when
	// off): the ring consults it before every page read, and a hit
	// delivers straight out of the cached page with no disk I/O and no
	// copy. cname is the cache key prefix — the file being read — and
	// id identifies this player in the cache's interval tracking.
	cache *cache.Cache
	cname string
	id    uint64
	// born is when the stream was told to play from here (a Play, seek,
	// resume or speed change); the first datagram written closes the
	// player's one delivery_startup_seconds observation.
	born   time.Time
	cancel chan struct{}
	done   chan struct{}
	// wake and space park the two processes instead of polling: the
	// producer nudges wake after an enqueue into an empty-observed
	// queue window, the consumer nudges space after freeing a slot or
	// giving a page back to the budget. Both are 1-buffered, so a nudge
	// is never lost and never blocks.
	wake  chan struct{}
	space chan struct{}
	// sent counts the pages that have gone out in full, which is what
	// opens the budget (fetcher.budget); res counts the pages held. The
	// disk process pins, either process unpins, only the network process
	// counts a page sent.
	sent atomic.Int32
}

// queueDepth is the SPSC capacity between the disk and network sides.
const queueDepth = 512

// readAheadPages is the depth of the prefetch ring: how many page reads
// one player keeps staged at the schedulers at most.
const readAheadPages = 4

// pageBudget bounds the disk process's lead over the network process in
// pages, whatever the packet size: every page a player pins — staged in
// the ring, being cut, or still referenced from the descriptor queue;
// read or cache hit alike — counts against it. It is the paper's double
// buffer (the page being cut and the page being sent) plus the ring, and
// it is what a player reserves in its disk's pool, so the budget having
// room means a destination page is to hand (queue.PagePool).
const pageBudget = readAheadPages + 2

// lendPages is how far past its reservation a player may pin on a
// contended disk, with pages its disk's pool lends out of the cache's
// share (fetcher.budget): while the network process holds the pages the
// reservation covers for pacing, the elevator still finds the player's
// next pages queued behind the one it takes, and reads them as a run.
const lendPages = 2

// headFraction is how much of a player's first page is in RAM ahead of the
// rest of it — read first, or kept there as the title's head (content.go)
// — and cut while the rest arrives (fetcher.issueOne, fetcher.tail): an
// eighth, which at the rates served plays for longer than the other seven
// take to follow it off the platter (a 256 KB page at 6 Mbit/s: 32 KB
// play for 44 ms, 224 KB transfer in 29), so the network process does not
// run dry in between.
const headFraction = 8

// playerIDs distinguishes players in the cache's interval tracking;
// a stream spawns a fresh player on every VCR transition.
var playerIDs atomic.Uint64

func (p *player) stop() {
	close(p.cancel)
	<-p.done
}

// pin counts one more page against the player's budget: within its
// reservation always, past it only if the disk's pool lends one.
func (p *player) pin() bool {
	lent, ok := p.res.Pin()
	if !ok {
		return false
	}
	p.s.m.obs.pinned.Add(1)
	if lent {
		p.s.m.obs.lent.Add(1)
	}
	return true
}

// unpin drops the hold that pin counted — the page first, so that room
// in the budget always means room in the pool — and nudges the disk
// process, which may be parked on a spent budget.
func (p *player) unpin(page *queue.PageRef) {
	page.Release()
	if p.res.Unpin() {
		p.s.m.obs.lent.Add(-1)
	}
	p.s.m.obs.pinned.Add(-1)
	p.nudgeSpace()
}

// nudgeSpace wakes the disk process if it is parked on a full queue or
// a spent budget.
func (p *player) nudgeSpace() {
	select {
	case p.space <- struct{}{}:
	default:
	}
}

// drop gives back what a descriptor that will not be sent holds.
func (p *player) drop(d descriptor) {
	switch {
	case d.done:
		p.unpin(d.page)
	case d.page != nil:
		d.page.Release()
	}
}

func (p *player) start() {
	p.pool.Reserve(&p.res, pageBudget) // closed by netLoop, after the drain
	if p.cache != nil {
		p.cache.PlayerStart(p.cname, p.id, p.tree.Meta().Pages)
	}
	p.wake = make(chan struct{}, 1)
	p.space = make(chan struct{}, 1)
	s := p.s
	if s.ring == nil {
		s.ring = queue.NewSPSC[descriptor](queueDepth)
		s.slots = newFetchSlots()
	}
	diskDone := make(chan struct{})
	go p.diskLoop(s.ring, diskDone)
	go p.netLoop(s.ring, diskDone)
}

// diskLoop is the disk process: it reads whole IB-tree pages into
// pooled refcounted buffers and queues packet descriptors that alias
// the page memory (read-ahead / double buffering). It blocks — parked
// on a channel, not polling — when the queue is full or the page budget
// is spent.
func (p *player) diskLoop(q *queue.SPSC[descriptor], diskDone chan struct{}) {
	defer close(diskDone)
	enqueue := func(d descriptor) bool {
		for !q.Enqueue(d) {
			select {
			case <-p.cancel:
				p.drop(d)
				return false
			case <-p.space:
			}
		}
		select {
		case p.wake <- struct{}{}:
		default:
		}
		return true
	}
	cur, err := p.tree.PageCursorAt(p.startPos)
	if err != nil {
		p.s.m.logf("stream %d: seek: %v", p.s.spec.Stream, err)
		enqueue(descriptor{eof: true}) // t=0: error EOF is reported immediately
		return
	}
	// The prefetch ring pipelines page reads through the per-volume I/O
	// schedulers. Its abort runs before diskDone closes (defer LIFO), so
	// in-flight device transfers are waited out before netLoop's drain
	// proceeds.
	f := newFetcher(p)
	defer f.abort()
	// lastT/gap place the EOF marker on the delivery timeline one
	// packet interval after the final packet, so the network goroutine
	// paces the EOF notification like any other item instead of racing
	// it against the last datagram's delivery.
	var lastT, gap time.Duration
	for {
		next := cur.NextPage()
		if next < 0 {
			slack := gap
			if slack <= 0 {
				slack = 2 * time.Millisecond
			}
			enqueue(descriptor{t: lastT + slack, eof: true})
			return
		}
		page, err := f.nextPage(cur, next)
		if err != nil {
			p.s.m.logf("stream %d: read: %v", p.s.spec.Stream, err)
			enqueue(descriptor{eof: true}) // t=0: error EOF is reported immediately
			return
		}
		if page == nil {
			return // cancelled while waiting for the page or for the budget
		}
		if p.cache != nil {
			p.cache.PlayerAt(p.cname, p.id, next)
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
				p.s.m.logf("stream %d: read: %v", p.s.spec.Stream, err)
				enqueue(descriptor{eof: true})
				return
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
			if !enqueue(descriptor{t: span.Time, ch: ch, page: page, off: off, n: n}) {
				f.giveBack(page) // drop the disk process's own hold too
				return
			}
			if d := span.Time - lastT; d > 0 {
				gap = d
			}
			lastT = span.Time
		}
		// The disk process's hold follows the page's packets through the
		// queue: the network process drops it, and with it the page's
		// place in the budget, when it has sent the last of them.
		if !enqueue(descriptor{page: page, done: true}) {
			return
		}
	}
}

// netLoop is the network process: it dequeues descriptors and sends
// each packet at its scheduled time, writing straight out of the page
// buffer. One timer paces every packet of the session; an empty queue
// parks the goroutine on the wake channel instead of spinning.
func (p *player) netLoop(q *queue.SPSC[descriptor], diskDone chan struct{}) {
	defer close(p.done)
	defer p.res.Close() // every path out drains first: nothing is pinned by then
	if p.cache != nil {
		// Deregister from the cache's interval tracking when the session
		// ends. Runs before done closes. The heat change is advertised by
		// the stream's teardown, not by every player a VCR command
		// replaces.
		defer p.cache.PlayerStop(p.cname, p.id)
	}
	// drain releases the page references still queued when the session
	// ends, so every page is accounted for at teardown.
	drain := func() {
		<-diskDone // the disk process exits promptly once cancel closes
		for {
			d, ok := q.Dequeue()
			if !ok {
				return
			}
			p.drop(d)
		}
	}
	// The session's single pacing timer, armed per packet that needs
	// waiting and drained on every path that did not consume it.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	// om aliases the MSU's pre-registered handles: the per-packet path
	// below touches only these atomics, keeping the loop at 0 allocs/op.
	om := &p.s.m.obs
	started := false
	epoch := time.Now()
	for {
		d, ok := q.Dequeue()
		if !ok {
			select {
			case <-p.cancel:
				drain()
				return
			case <-p.wake:
				continue
			}
		}
		if d.done {
			p.sent.Add(1)
			p.unpin(d.page) // nudges space for the slot and the page alike
			continue
		}
		p.nudgeSpace()
		// Pace first — EOF descriptors carry a timestamp just past the
		// final packet, so end-of-stream is announced on the delivery
		// timeline, never before the last datagram has been sent.
		target := epoch.Add(d.t - p.startPos)
		w := time.Until(target)
		if w > 0 {
			timer.Reset(w)
			select {
			case <-p.cancel:
				if !timer.Stop() {
					<-timer.C
				}
				p.drop(d)
				drain()
				return
			case <-timer.C:
			}
		}
		if d.eof {
			p.s.playerEOF(p)
			// Stay parked until cancelled so stop() never blocks.
			<-p.cancel
			drain()
			return
		}
		conn := p.s.dataConn
		if d.ch == protocol.Control && p.s.ctrlConn != nil {
			conn = p.s.ctrlConn
		}
		payload := d.page.Bytes()[d.off : d.off+d.n]
		if _, err := conn.Write(payload); err != nil {
			select {
			case <-p.cancel: // socket closed by teardown
				d.page.Release()
				drain()
				return
			default:
			}
			p.s.m.logf("stream %d: send: %v", p.s.spec.Stream, err)
		}
		d.page.Release()
		if !started {
			started = true
			om.startup.Observe(time.Since(p.born))
		}
		// A packet sent at w>0 waited for its slot (lateness ~0, clamped
		// into the first bucket); w<0 means it left -w behind schedule.
		// -w was computed for the pacing wait anyway, so observing it
		// costs no extra clock read.
		om.packets.Inc()
		om.bytes.Add(int64(d.n))
		om.lateness.Observe(-w)
		p.s.updatePos(p.speed, d.t)
	}
}
