// Package msu implements Calliope's Multimedia Storage Unit (§2.3).
//
// An MSU is the real-time component: it records and plays multimedia
// data, manages its disks through the user-level file system
// (internal/msufs) with IB-tree content files (internal/ibtree), and
// processes VCR commands arriving on a per-group TCP control
// connection it opens to the client. A central handler takes RPCs from
// the Coordinator. As in the paper, the data moves between processes
// joined by lock-free shared-memory queues (internal/queue): each playing
// stream has one disk process, which reads its pages with double
// buffering and takes its VCR commands as messages, and the MSU has one
// network process, the sender, which paces every stream's packets onto
// the wire. MSUs never talk to each other.
//
// On startup (and after any disconnection) the MSU registers with the
// Coordinator, reporting its disks, free space, and stored content;
// this is the recovery half of the paper's fault-tolerance story.
package msu

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"calliope/internal/cache"
	"calliope/internal/core"
	"calliope/internal/iosched"
	"calliope/internal/msufs"
	"calliope/internal/obs"
	"calliope/internal/queue"
	"calliope/internal/trace"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// Attribute keys on content files.
const (
	AttrType     = "content-type"
	AttrTree     = "ibtree"
	AttrLength   = "length"
	AttrFastFwd  = "fastfwd"
	AttrFastBack = "fastback"
	AttrFastRole = "fast-role"
	AttrEvery    = "fast-every"
)

// Config configures an MSU.
type Config struct {
	ID          core.MSUID
	Coordinator string // Coordinator TCP address
	// Host is the IP the MSU's UDP sockets bind/advertise on.
	Host string
	// Volumes are the MSU's disks, one volume per disk, already
	// formatted or mounted.
	Volumes []*msufs.Volume
	// Striped lays content across all volumes round-robin (§2.3.3's
	// alternative layout): the MSU then advertises one logical disk
	// whose capacity and bandwidth are the sum of its members.
	Striped bool
	// DiskBandwidth is the per-disk delivery budget advertised to the
	// Coordinator. Zero lets the Coordinator pick its default.
	DiskBandwidth units.BitRate
	// NetBandwidth is the MSU's NIC delivery budget advertised to the
	// Coordinator. Zero lets the Coordinator default it to the sum of
	// the disk budgets; raise it to let RAM-cached streams multiply
	// capacity past what the disks alone could serve.
	NetBandwidth units.BitRate
	// CacheBytes sizes each logical disk's RAM interval cache (§2.3's
	// buffer memory, spent on whole IB-tree pages shared across
	// streams). Zero selects DefaultCacheBytes; negative disables
	// caching. A quarter as much again, on top of it, goes to the resident
	// heads of the disk's titles (content.go): 32 KB a title at the
	// default page size, so 64 titles by default, and none with caching
	// disabled.
	CacheBytes units.ByteSize
	// ReconnectInterval is the base of the re-registration backoff
	// after the Coordinator connection drops (attempts space out
	// exponentially with jitter, capped at wire.DefaultBackoffCap).
	ReconnectInterval time.Duration
	// Dial supplies the TCP dialer for both the Coordinator connection
	// and per-group client control connections; nil means a net.Dial
	// with a 5 s timeout. Fault-injection tests pass an injector here
	// (internal/faultinject).
	Dial func(network, address string) (net.Conn, error)
	// Listen supplies the TCP listener for the MSU-to-MSU replication
	// transfer port (internal/replicate); nil means net.Listen.
	// Fault-injection tests wrap it so crashing an MSU severs its
	// in-flight copy-outs too.
	Listen func(network, address string) (net.Listener, error)
	// Logger receives operational messages; nil disables logging.
	Logger *log.Logger
}

// DefaultCacheBytes is the per-disk RAM cache size when Config leaves
// CacheBytes zero: room for a few dozen 256 KB pages, enough that
// concurrent viewers of one title ride each other's reads.
const DefaultCacheBytes units.ByteSize = 8 << 20

// MSU is the storage-unit server.
type MSU struct {
	cfg Config
	// stores are the logical disks: one per volume, or a single
	// striped store over all volumes.
	stores []msufs.Store
	// pools are the logical disks' page pools, indexed like stores: every
	// page a stream reads or pins is one of its disk's pool's (buildPools).
	pools []*queue.PagePool
	// caches are the per-store RAM interval caches over those pools,
	// indexed like stores; entries are nil when caching is disabled or the
	// budget is below one page.
	caches []*cache.Cache
	// scheds holds one I/O scheduler per physical volume: every read of
	// a store file on that volume flows through its scheduler
	// (submitRead), so the per-disk C-SCAN picks see the whole MSU's
	// demand. Built once in New, immutable after.
	scheds map[*msufs.Volume]*iosched.Scheduler
	// diskScheds lists the schedulers of the member volumes behind each
	// logical disk, indexed like stores: its stats and its contention.
	diskScheds [][]*iosched.Scheduler
	// obs holds the MSU's metrics handles (obs.go).
	obs  msuMetrics
	send *sender // the network process (send.go), from New to Close
	// reportMu orders cache reports: reportSeq, the cumulative figures a
	// report carries and its send go together under it (reportCache).
	reportMu  sync.Mutex
	reportSeq uint64

	// contents holds the one shared handle per opened content file
	// (content.go) and heads the resident heads of each logical disk's
	// titles, indexed like stores. contentMu is a leaf: nothing is called
	// under it but the store's in-memory open.
	contentMu sync.Mutex
	contents  map[contentKey]*content
	heads     []headSet

	mu      sync.Mutex
	peer    *wire.Peer
	streams map[core.StreamID]*stream
	groups  map[uint64]*group
	// playing counts each disk's play streams; the report clock runs while any do.
	playing []int
	clock   *time.Timer
	// transferLn accepts MSU-to-MSU replication transfers; its address
	// travels in MSUHello. transferConns tracks live copy-out
	// connections so Close can sever them; repl tracks inbound copy
	// jobs by Coordinator-assigned transfer id.
	transferLn    net.Listener
	transferConns map[net.Conn]struct{}
	repl          map[uint64]*replJob
	closed        bool
	// quit interrupts reconnect backoff sleeps on Close.
	quit chan struct{}

	wg sync.WaitGroup
}

// New builds an MSU.
func New(cfg Config) (*MSU, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("msu: config needs an ID")
	}
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("msu: config needs a Coordinator address")
	}
	if len(cfg.Volumes) == 0 {
		return nil, fmt.Errorf("msu: config needs at least one volume")
	}
	if cfg.Host == "" {
		cfg.Host = "127.0.0.1"
	}
	if cfg.ReconnectInterval <= 0 {
		cfg.ReconnectInterval = 500 * time.Millisecond
	}
	if cfg.Dial == nil {
		cfg.Dial = func(network, address string) (net.Conn, error) {
			return net.DialTimeout(network, address, 5*time.Second)
		}
	}
	striped := cfg.Striped && len(cfg.Volumes) > 1
	if err := checkLayout(cfg.Volumes, striped); err != nil {
		return nil, err
	}
	// A scheduler's goroutine starts on its first read, so one built here
	// costs nothing if New fails below.
	scheds := make(map[*msufs.Volume]*iosched.Scheduler, len(cfg.Volumes))
	var all []*iosched.Scheduler
	for _, v := range cfg.Volumes {
		scheds[v] = iosched.New(v.Device(), iosched.Options{Now: time.Now})
		all = append(all, scheds[v])
	}
	var stores []msufs.Store
	var diskScheds [][]*iosched.Scheduler
	if striped {
		set, err := msufs.NewStripeSet(cfg.Volumes...)
		if err != nil {
			return nil, err
		}
		stores = []msufs.Store{msufs.NewStripedStore(set)}
		diskScheds = [][]*iosched.Scheduler{all}
	} else {
		for _, v := range cfg.Volumes {
			stores = append(stores, msufs.NewStore(v))
			diskScheds = append(diskScheds, []*iosched.Scheduler{scheds[v]})
		}
	}
	pools, caches, err := buildPools(cfg.CacheBytes, stores)
	if err != nil {
		return nil, err
	}
	m := &MSU{
		cfg:        cfg,
		stores:     stores,
		pools:      pools,
		caches:     caches,
		scheds:     scheds,
		diskScheds: diskScheds,
		contents:   make(map[contentKey]*content),
		streams:    make(map[core.StreamID]*stream),
		groups:     make(map[uint64]*group),
		playing:    make([]int, len(stores)),
		quit:       make(chan struct{}),
	}
	m.obs = newMSUMetrics(obs.New(obs.Options{Now: time.Now}))
	m.heads = buildHeads(stores, m.caches)
	for disk := range m.stores {
		m.sweep(disk)
		m.loadHeads(disk)
	}
	m.send = newSender()
	go m.send.run()
	return m, nil
}

// buildPools gives each logical disk its one page pool and, over it, its
// RAM interval cache. The pool owns the cache's budget in pages of the
// store's block size, so cached pages alias directly into the zero-copy
// delivery path, and every playing stream reserves its page budget on top
// (stream.run). With caching off, or a budget below one page, the pool
// owns nothing and there is no cache: the streams' reservations are all
// of it.
func buildPools(budget units.ByteSize, stores []msufs.Store) ([]*queue.PagePool, []*cache.Cache, error) {
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	pools := make([]*queue.PagePool, len(stores))
	caches := make([]*cache.Cache, len(stores))
	for i, store := range stores {
		own := int(max(0, int64(budget)/int64(store.BlockSize())))
		pool, err := queue.NewPagePool(store.BlockSize(), own)
		if err != nil {
			return nil, nil, err
		}
		pools[i] = pool
		if own > 0 {
			caches[i] = cache.New(pool)
		}
	}
	return pools, caches, nil
}

// cacheFor returns the RAM cache for one logical disk, or nil when
// caching is off.
func (m *MSU) cacheFor(disk int) *cache.Cache {
	if disk < 0 || disk >= len(m.caches) {
		return nil
	}
	return m.caches[disk]
}

// ioStats aggregates scheduler counters across one logical disk's
// member volumes.
func (m *MSU) ioStats(disk int) trace.IOSchedStats {
	var total trace.IOSchedStats
	if disk < 0 || disk >= len(m.diskScheds) {
		return total
	}
	for _, s := range m.diskScheds[disk] {
		total = total.Add(s.Stats())
	}
	return total
}

// contended reports whether one of a logical disk's schedulers has more
// requests pending than one transfer can carry (iosched's run rule). It
// takes no lock: the fetcher asks it page by page.
func (m *MSU) contended(disk int) bool {
	for _, s := range m.diskScheds[disk] {
		if s.Contended() {
			return true
		}
	}
	return false
}

// reportEvery is the report clock's period while a disk plays.
const reportEvery = 250 * time.Millisecond

// armClockLocked arms the report clock, which holds a count on m.wg until
// its tick has run or Close has stopped it. Callers hold m.mu.
func (m *MSU) armClockLocked() {
	if m.clock == nil && !m.closed {
		m.wg.Add(1)
		m.clock = time.AfterFunc(reportEvery, m.reportTick)
	}
}

// reportTick is the report clock's tick: a report for each disk playing.
func (m *MSU) reportTick() {
	defer m.wg.Done()
	m.mu.Lock()
	m.clock = nil
	playing := slices.Clone(m.playing)
	if slices.Max(playing) > 0 {
		m.armClockLocked()
	}
	m.mu.Unlock()
	for disk, n := range playing {
		if n > 0 {
			m.reportCache(disk)
		}
	}
}

// reportCache advertises one disk's cache heat and I/O-scheduler
// counters to the Coordinator, which re-evaluates queued admissions on
// every report. The report clock sends it while the disk plays, and
// group.quit when the disk's last play stream ends.
func (m *MSU) reportCache(disk int) {
	c := m.cacheFor(disk)
	// The number is taken with the figures and sent under the same lock: a
	// report with a higher one never carries older counters or comes first.
	m.reportMu.Lock()
	defer m.reportMu.Unlock()
	io := m.ioStats(disk)
	if c == nil && io.Requests == 0 {
		return
	}
	m.reportSeq++
	// Piggyback the MSU's cumulative metrics snapshot; the Coordinator
	// diffs it against the last one it merged.
	snap := m.obs.reg.Portable()
	report := wire.CacheReport{Seq: m.reportSeq, Disk: disk, IO: io, Obs: &snap}
	if c != nil {
		report.Stats = c.Stats()
		for _, cov := range c.Coverage() {
			report.Coverage = append(report.Coverage, wire.ContentCoverage{
				Name:        cov.Name,
				CachedPages: cov.CachedPages,
				TotalPages:  cov.TotalPages,
				Players:     cov.Players,
			})
		}
	}
	m.notifyCoordinator(wire.TypeCacheReport, report)
}

// Start connects to the Coordinator and begins serving. It keeps
// reconnecting until Close.
func (m *MSU) Start() error {
	// The replication transfer port opens before registration so the
	// hello can advertise its address.
	if err := m.startTransferListener(); err != nil {
		return err
	}
	// First registration is synchronous so callers know the MSU is
	// live; later reconnections happen in the background.
	if err := m.connectOnce(); err != nil {
		// A failed Start leaves nothing running: take the transfer
		// listener back down and reap its accept loop.
		m.mu.Lock()
		ln := m.transferLn
		m.transferLn = nil
		m.mu.Unlock()
		if ln != nil {
			ln.Close() //nolint:errcheck // already failing
		}
		m.wg.Wait()
		return err
	}
	return nil
}

// Close stops the MSU and all its streams.
func (m *MSU) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.quit)
	if m.clock != nil && m.clock.Stop() {
		m.wg.Done() // a tick that will not run; one running is waited out below
	}
	peer := m.peer
	ln := m.transferLn
	conns := make([]net.Conn, 0, len(m.transferConns))
	for c := range m.transferConns {
		conns = append(conns, c)
	}
	groups := make([]*group, 0, len(m.groups))
	for _, g := range m.groups {
		groups = append(groups, g)
	}
	jobs := make([]*replJob, 0, len(m.repl))
	for _, j := range m.repl {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	if ln != nil {
		ln.Close() //nolint:errcheck // stops the accept loop
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck // severs in-flight copy-outs
	}
	for _, j := range jobs {
		j.abort() // severs an inbound copy; its job cleans up
	}
	for _, g := range groups {
		g.quit("msu shutdown")
	}
	var err error
	if peer != nil {
		err = peer.Close()
	}
	m.wg.Wait()
	close(m.send.quit)
	<-m.send.done
	// Schedulers close after every stream has drained: a scheduler
	// completes its pending requests with ErrClosed, so any straggler
	// fetch unblocks rather than hanging.
	for _, s := range m.scheds {
		s.Close() //nolint:errcheck // Close never fails
	}
	return err
}

func (m *MSU) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf("msu %s: "+format, append([]any{m.cfg.ID}, args...)...)
	}
}

// connectOnce dials and registers with the Coordinator.
func (m *MSU) connectOnce() error {
	conn, err := m.cfg.Dial("tcp", m.cfg.Coordinator)
	if err != nil {
		return fmt.Errorf("msu: dialing coordinator: %w", err)
	}
	peer := wire.NewPeer(conn, m.handle, func(error) { m.reconnect() })
	if err := peer.Call(wire.TypeMSUHello, m.buildHello(), &wire.MSUWelcome{}); err != nil {
		peer.Close() //nolint:errcheck // best-effort cleanup; the registration error is what matters
		return fmt.Errorf("msu: registering: %w", err)
	}
	m.mu.Lock()
	m.peer = peer
	m.mu.Unlock()
	m.logf("registered with coordinator at %s", m.cfg.Coordinator)
	return nil
}

// reconnect re-registers after the Coordinator connection drops —
// "When the MSU becomes available again, it contacts the Coordinator
// and is restored to the scheduling database" (§2.2). Attempts back
// off exponentially with jitter so a flapping Coordinator is not
// hammered by its whole MSU fleet at once.
func (m *MSU) reconnect() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.peer = nil
	m.wg.Add(1) // under mu: Close sets closed before waiting
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		b := wire.Backoff{Base: m.cfg.ReconnectInterval}
		for {
			t := time.NewTimer(b.Next())
			select {
			case <-m.quit:
				t.Stop()
				return
			case <-t.C:
			}
			if err := m.connectOnce(); err == nil {
				return
			}
		}
	}()
}

// buildHello assembles the registration message from the volumes.
func (m *MSU) buildHello() *wire.MSUHello {
	hello := &wire.MSUHello{ID: m.cfg.ID, NetBandwidth: m.cfg.NetBandwidth, ProtoVersion: wire.ProtoVersion}
	m.mu.Lock()
	if m.transferLn != nil {
		hello.TransferAddr = m.transferLn.Addr().String()
	}
	m.mu.Unlock()
	for _, store := range m.stores {
		di := wire.DiskInfo{
			BlockSize:   store.BlockSize(),
			TotalBlocks: store.TotalBlocks(),
			FreeBlocks:  store.FreeBlocks(),
			// A striped logical disk aggregates its members' delivery
			// bandwidth.
			Bandwidth: m.cfg.DiskBandwidth * units.BitRate(store.Width()),
		}
		for _, fi := range store.List() {
			typ := contentType(fi)
			if typ == "" {
				continue
			}
			length, _ := strconv.ParseInt(fi.Attrs[AttrLength], 10, 64)
			di.Contents = append(di.Contents, wire.ContentDecl{
				Name:    fi.Name,
				Type:    typ,
				Length:  time.Duration(length),
				Size:    units.ByteSize(fi.Size),
				HasFast: fi.Attrs[AttrFastFwd] != "" || fi.Attrs[AttrFastBack] != "",
			})
		}
		hello.Disks = append(hello.Disks, di)
	}
	return hello
}

// notifyCoordinator sends a notification, tolerating a down link (the
// reconnect path re-registers state).
func (m *MSU) notifyCoordinator(msgType string, v any) {
	m.mu.Lock()
	peer := m.peer
	m.mu.Unlock()
	if peer == nil {
		return
	}
	peer.Notify(msgType, v) //nolint:errcheck // link loss handled by reconnect
}

// handle serves Coordinator RPCs.
func (m *MSU) handle(msgType string, body json.RawMessage) (any, error) {
	switch msgType {
	case wire.TypeStartStream:
		var req wire.StartStream
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
		}
		return m.startStream(req.Spec)
	case wire.TypeStopStream:
		var req wire.StopStream
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
		}
		m.stopStream(req.Stream, "coordinator stop")
		return nil, nil
	case wire.TypeDeleteContent:
		var req wire.DeleteContent
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
		}
		return nil, m.deleteContent(req.Content)
	case wire.TypeReplicate:
		var req wire.Replicate
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
		}
		return nil, m.handleReplicate(req)
	case wire.TypeReplicateAbort:
		var req wire.ReplicateAbort
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
		}
		m.abortReplication(req.ID)
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: unknown message %q", core.ErrBadRequest, msgType)
	}
}

// deleteContent removes an item and its fast-scan companions.
func (m *MSU) deleteContent(name string) error {
	m.mu.Lock()
	for _, s := range m.streams {
		if s.spec.Content == name {
			m.mu.Unlock()
			return fmt.Errorf("%w: %q", core.ErrContentInUse, name)
		}
	}
	m.mu.Unlock()
	for disk, store := range m.stores {
		st, err := store.Stat(name)
		if err != nil {
			continue
		}
		// Title first: cut short, the companions left are swept at next start.
		return (&fileSet{m: m, disk: disk, store: store, names: itemFiles(st)}).abort()
	}
	return fmt.Errorf("%w: %q", core.ErrNoSuchContent, name)
}

// startStream admits one stream (play or record) and attaches it to
// its group.
func (m *MSU) startStream(spec core.StreamSpec) (*wire.StartStreamOK, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Disk >= len(m.stores) {
		return nil, fmt.Errorf("%w: disk %d of %d", core.ErrBadRequest, spec.Disk, len(m.stores))
	}
	vol := m.stores[spec.Disk]

	var s *stream
	var resp *wire.StartStreamOK
	var err error
	if spec.Record {
		s, resp, err = m.newRecordStream(spec, vol)
	} else {
		s, err = m.newPlayStream(spec, vol)
		resp = &wire.StartStreamOK{}
	}
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		s.teardown()
		return nil, core.ErrSessionClosed
	}
	if _, dup := m.streams[spec.Stream]; dup {
		m.mu.Unlock()
		s.teardown()
		return nil, fmt.Errorf("%w: stream %d", core.ErrDuplicateName, spec.Stream)
	}
	g := m.groups[spec.Group]
	if g == nil {
		g = newGroup(m, spec.Group, spec.GroupSize, spec.ClientTCP)
		m.groups[spec.Group] = g
	}
	m.streams[spec.Stream] = s
	if !spec.Record {
		m.playing[spec.Disk]++
		m.armClockLocked()
	}
	s.group = g
	complete := g.addMember(s)
	m.mu.Unlock()

	if complete {
		if err := g.connectClient(); err != nil {
			m.logf("group %d: client control connection failed: %v", spec.Group, err)
			g.quit("client unreachable")
			return nil, fmt.Errorf("msu: connecting client control: %w", err)
		}
	}
	m.obs.streams.Inc()
	m.logf("stream %d (%s %q) started", spec.Stream, map[bool]string{true: "record", false: "play"}[spec.Record], spec.Content)
	return resp, nil
}

// stopStream force-terminates one stream's whole group.
func (m *MSU) stopStream(id core.StreamID, cause string) {
	m.mu.Lock()
	s := m.streams[id]
	m.mu.Unlock()
	if s == nil || s.group == nil {
		return
	}
	s.group.quit(cause)
}

// dropGroup forgets a finished group and returns the disks it leaves idle.
func (m *MSU) dropGroup(g *group) (idle []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range g.members {
		delete(m.streams, s.spec.Stream)
		if d := s.spec.Disk; !s.spec.Record {
			if m.playing[d]--; m.playing[d] == 0 {
				idle = append(idle, d)
			}
		}
	}
	delete(m.groups, g.id)
	return idle
}
