// Package msu implements Calliope's Multimedia Storage Unit (§2.3).
//
// An MSU is the real-time component: it records and plays multimedia
// data, manages its disks through the user-level file system
// (internal/msufs) with IB-tree content files (internal/ibtree), and
// processes VCR commands arriving on a per-group TCP control
// connection it opens to the client. A central RPC process serves the
// Coordinator and those connections. It is a core and a shell, as the
// Coordinator is: the core (engine.go) owns the control state and takes
// no lock, reads no clock and touches no socket, each input one method
// and its decisions an ordered list; the shell (control.go) feeds it one
// input at a time under MSU.mu and carries the decisions out, a blocking
// one's outcome fed back as the next input. As in the paper, the data
// moves between processes joined by lock-free shared-memory queues
// (internal/queue): each playing stream has one disk process, which reads
// its pages with double buffering and takes its VCR commands as messages,
// and the MSU has one network process, the sender, which paces every
// stream's packets onto the wire. Neither takes a lock per packet: a
// stream's position is one atomic, and its cue is handed over with the
// ring. MSUs never talk to each other.
//
// On startup (and after any disconnection) the MSU registers with the
// Coordinator, reporting its disks, free space, and stored content;
// this is the recovery half of the paper's fault-tolerance story.
package msu

import (
	"context"
	"fmt"
	"log"
	"net"
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

	// contents holds the one shared handle per opened content file
	// (content.go) and heads the resident heads of each logical disk's
	// titles, indexed like stores. contentMu is a leaf: nothing is called
	// under it but the store's in-memory open.
	contentMu sync.Mutex
	contents  map[contentKey]*content
	heads     []headSet

	// mu is the shell's lock (step): it is held around one input to the
	// core and its take, and guards the fields below. ctls are the groups'
	// control connections, and waiters the channels of the requests the core
	// has yet to answer; fifo holds the messages decided and not yet sent,
	// draining whether a goroutine is sending them. clock is the report
	// clock's timer, and drained closes when Close has seen every group go.
	mu       sync.Mutex
	eng      *engine
	peer     *wire.Peer
	ctls     map[core.StreamID]*wire.Peer
	waiters  map[uint64]chan action
	tickets  uint64
	fifo     []message
	spare    []message
	draining bool
	clock    *time.Timer
	drained  chan struct{}
	// transferLn accepts MSU-to-MSU replication transfers; its address
	// travels in MSUHello.
	transferLn net.Listener
	// ctx ends at Close (cancel): it cuts the redial waits short and severs
	// the copy-outs in flight.
	ctx    context.Context
	cancel context.CancelFunc

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
		eng:        newEngine(len(stores)),
		ctls:       make(map[core.StreamID]*wire.Peer),
		waiters:    make(map[uint64]chan action),
		drained:    make(chan struct{}),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
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

// reportCache advertises one disk's cache heat and I/O-scheduler
// counters to the Coordinator, which re-evaluates queued admissions on
// every report. The core numbers the reports (engine.report) and they
// leave in that order, so one with a higher number never carries older
// figures or comes first.
func (m *MSU) reportCache(peer *wire.Peer, disk int, seq uint64) {
	c := m.cacheFor(disk)
	io := m.ioStats(disk)
	if peer == nil || c == nil && io.Requests == 0 {
		return
	}
	// Piggyback the MSU's cumulative metrics snapshot; the Coordinator
	// diffs it against the last one it merged.
	snap := m.obs.reg.Portable()
	report := wire.CacheReport{Seq: seq, Disk: disk, IO: io, Obs: &snap}
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
	peer.Notify(wire.TypeCacheReport, report) //nolint:errcheck // link loss handled by reconnect
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
	first := false
	var peer *wire.Peer
	var ln net.Listener
	m.step(func(time.Time) {
		if first = !m.eng.closed; !first {
			return
		}
		m.eng.close() // inbound copies abort, every group is quit
		m.cancel()
		if m.clock != nil && m.clock.Stop() {
			m.wg.Done() // a tick that will not run; one running is waited out below
		}
		peer, ln = m.peer, m.transferLn
	})
	if !first {
		return nil
	}
	if ln != nil {
		ln.Close() //nolint:errcheck // stops the accept loop
	}
	<-m.drained // a group with a command in flight is torn down when it returns
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
	if m.eng.closed {
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
			case <-m.ctx.Done():
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
