// Package coordinator implements Calliope's Coordinator: the global
// resource manager (§2.2).
//
// The Coordinator keeps the administrative database (content types,
// table of contents, MSUs and their disks), authenticates clients,
// manages display ports and stream groups, and schedules play/record
// requests onto MSUs by disk bandwidth and disk space. Requests that
// cannot be satisfied may queue until resources free up. MSU failures
// are detected by broken TCP connections; a returning MSU re-registers
// and is restored to the scheduling database.
//
// The administrative database itself lives in internal/admindb, one
// copy of it: the Coordinator reads the tables through the database's
// accessors and changes them only through apply — journal, fsync, then
// the tables — so nothing here can drift from what a restart would
// replay. The paper's Calliope "does not recover from Coordinator
// failures"; ours does, when Config.Store is a database opened on a
// state directory: a restarted Coordinator finds the tables as the last
// acknowledged request left them, lets MSUs re-register and clients
// reconnect, and reports recordings the crash interrupted. Sessions,
// ports, queued requests and the live bandwidth/space ledgers are
// deliberately not persisted — they are rebuilt by the reconnect and
// re-registration traffic.
//
// One TCP listener serves both clients and MSUs; the first message on
// a connection (hello vs msu-hello) decides the role.
package coordinator

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/schedule"
	"calliope/internal/trace"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// Role is a customer's privilege level in the administrative database
// (§2.1: "With appropriate permissions, the client can delete an item
// of content or make other administrative changes").
type Role int

// Roles. Viewers play and record; admins additionally delete content
// and install types.
const (
	RoleViewer Role = iota
	RoleAdmin
)

// Config configures a Coordinator.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Types seeds the content-type table: each is put into the database
	// at every start, so the configuration stays the authority for the
	// names it lists.
	Types []core.ContentType
	// Users is the customer database: user name → role. Empty means an
	// open installation where every user is an admin (the tests' and
	// examples' default).
	Users map[string]Role
	// QueueTimeout bounds how long a Wait-ing play request may queue.
	QueueTimeout time.Duration
	// Now supplies the clock for queue-deadline arithmetic; nil means
	// time.Now. Tests and the simulator inject a virtual clock so
	// scheduling decisions stay reproducible (the walltime analyzer
	// bans direct wall-clock reads in this package).
	Now func() time.Time
	// Listen supplies the TCP listener; nil means net.Listen. The
	// fault-injection tests pass an injector-wrapped listener here
	// (internal/faultinject).
	Listen func(network, address string) (net.Listener, error)
	// Store is the administrative database: admindb.Open's survives a
	// Coordinator restart, admindb.NewMem's lets a test hand one database
	// to two Coordinators in turn. Nil means a NewMem of the
	// Coordinator's own — a restart forgets everything, as in the paper.
	// The Coordinator does not close the database; its owner does, after
	// the Coordinator shuts down.
	Store admindb.Store
	// Replication tunes the demand-driven content replication policy
	// (internal/replicate); the zero value is the defaults.
	Replication ReplicationConfig
	// Logger receives operational messages; nil disables logging.
	Logger *log.Logger
}

// Coordinator is the server. Create with New, start with Start.
type Coordinator struct {
	cfg Config
	ln  net.Listener

	mu sync.Mutex
	// db is the administrative database. It is read and (through apply)
	// changed under mu, which is what lets the Coordinator hold on to the
	// records it hands out.
	db       *admindb.DB
	msus     map[core.MSUID]*msuState
	sessions map[core.SessionID]*session
	active   map[core.StreamID]*activeStream
	// pending tracks composite recordings by group until every
	// component commits, at which point the parent item is created.
	pending map[uint64]*pendingComposite
	// redispatching marks orphaned groups that already have a recovery
	// goroutine; a cascading MSU failure must not spawn a second one.
	redispatching map[uint64]bool
	// replications tracks in-flight MSU-to-MSU content transfers by
	// order ID; each holds ledger reservations on both ends.
	replications map[uint64]*replication
	// dereplicating marks contents with a cold-replica drop in flight,
	// so one space-pressure report cannot plan the same drop twice.
	dereplicating map[string]bool
	// obs is the cluster metrics registry and event timeline (DESIGN.md
	// §3i); om holds the Coordinator's pre-registered handles, the one
	// place it counts anything.
	obs *obs.Registry
	om  coordMetrics

	nextRepl uint64

	// release is closed and replaced whenever resources free up, so
	// queued requests can retry.
	release chan struct{}

	closed bool
	wg     sync.WaitGroup
}

type pendingComposite struct {
	parent  string
	typ     string
	waiting map[string]bool // component content names not yet committed
	done    []string
	length  time.Duration
	size    int64
	disk    core.DiskID
}

// committed returns the composite with one more component in. The
// receiver is left as it was, so a commit the journal refuses changes
// nothing.
func (pc pendingComposite) committed(req wire.RecordingDone, at core.DiskID) *pendingComposite {
	waiting := make(map[string]bool, len(pc.waiting))
	for name := range pc.waiting {
		if name != req.Content {
			waiting[name] = true
		}
	}
	pc.waiting = waiting
	pc.done = append(pc.done[:len(pc.done):len(pc.done)], req.Content)
	if req.Length > pc.length {
		pc.length = req.Length
	}
	pc.size += int64(req.Size)
	if pc.disk == (core.DiskID{}) {
		pc.disk = at
	}
	return &pc
}

type msuState struct {
	id    core.MSUID
	peer  *wire.Peer
	alive bool
	// transferAddr is the MSU's replication transfer listener, where
	// peer MSUs pull content copies from; empty when not advertised.
	transferAddr string
	disks        []*diskState
	// lastObs is the MSU's last cumulative metrics snapshot; cacheReport
	// merges only the delta since it into the cluster registry, so lost
	// reports and MSU restarts never double-count. lastReport is the
	// sequence number of the last report taken from this registration of
	// the MSU (a restarted MSU registers afresh and numbers from 1 again).
	lastObs    obs.Snapshot
	lastReport uint64
	// net is the MSU's NIC delivery budget. Every play stream reserves
	// from it; warmly cached plays reserve ONLY from it, so the RAM
	// cache multiplies capacity past the disks' duty-cycle limit.
	net *schedule.Ledger // bit/s
}

type diskState struct {
	blockSize int
	bw        *schedule.Ledger // bit/s
	space     *schedule.Ledger // blocks
	// cache and coverage mirror the disk's last cache report: the
	// hit/miss counters and the per-content RAM footprint that decides
	// whether a play needs a disk duty-cycle slot.
	cache    trace.CacheStats
	coverage map[string]wire.ContentCoverage
	// io mirrors the disk's I/O-scheduler counters from the last report.
	io trace.IOSchedStats
	// lastHitPct is the cache hit percentage last published to the event
	// timeline (-1 before the first report); a move of cacheRatioStep
	// points earns a new cache-ratio event.
	lastHitPct int
}

// warm reports whether a content is warmly cached on this disk — at
// least 90% of its pages resident — so a play of it will be served
// from RAM and needs no disk bandwidth slot.
func (d *diskState) warm(name string) bool {
	cov, ok := d.coverage[name]
	return ok && cov.TotalPages > 0 && cov.CachedPages*10 >= cov.TotalPages*9
}

type session struct {
	id    core.SessionID
	user  string
	role  Role
	peer  *wire.Peer
	ports map[string]*core.DisplayPort
}

type activeStream struct {
	id      core.StreamID
	group   uint64
	msu     core.MSUID
	disk    int
	session core.SessionID
	content string
	typ     string
	record  bool
	// spec is the full stream specification, kept so a failed play
	// stream can be re-dispatched onto another MSU holding a replica.
	spec core.StreamSpec
	// grant is every ledger claim the stream holds: NIC bandwidth and
	// (unless warmly cached) a disk slot for a play, disk bandwidth and
	// an estimate's worth of space for a recording.
	grant grant
}

// New builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	db := cfg.Store
	if db == nil {
		db = admindb.NewMem()
	}
	c := &Coordinator{
		cfg:           cfg,
		db:            db,
		msus:          make(map[core.MSUID]*msuState),
		sessions:      make(map[core.SessionID]*session),
		active:        make(map[core.StreamID]*activeStream),
		pending:       make(map[uint64]*pendingComposite),
		redispatching: make(map[uint64]bool),
		replications:  make(map[uint64]*replication),
		dereplicating: make(map[string]bool),
		release:       make(chan struct{}),
	}
	c.obs = obs.New(obs.Options{Now: cfg.Now})
	c.om = newCoordMetrics(c.obs)
	var boot []admindb.Mutation
	for _, t := range cfg.Types {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		boot = append(boot, admindb.PutType(t))
	}
	// In-flight recordings found in the database were interrupted by the
	// crash this start follows; they are reported lost and settled.
	for _, r := range db.Recordings() {
		c.om.lostRecordings.Add(1)
		c.logf("recording group %d (%v on MSU %q) lost in Coordinator restart", r.Group, r.Contents, r.MSU)
		boot = append(boot, admindb.DeleteRecording(r.Group))
	}
	if err := c.apply(boot...); err != nil {
		return nil, err
	}
	return c, nil
}

// apply is the one way the Coordinator changes the administrative
// database: admindb journals and fsyncs the mutations and only then
// plays them into the tables, so on an error nothing has changed and the
// caller refuses its request — ledger and bookkeeping side effects come
// after a nil return. The handful of callers with no one to refuse drop
// the error: it is counted and logged here. Callers hold c.mu (New runs
// before Start and needs no lock).
func (c *Coordinator) apply(muts ...admindb.Mutation) error {
	if err := c.db.Apply(muts...); err != nil {
		c.om.applyErrors.Inc()
		c.logf("admindb: %v", err)
		return fmt.Errorf("coordinator: persisting administrative state: %w", err)
	}
	return nil
}

// putContentAt builds the record of a content item whose first (and so
// primary) replica is on disk d.
func putContentAt(info core.ContentInfo, d core.DiskID) admindb.Mutation {
	info.Disk = d
	return admindb.PutContent(admindb.ContentRecord{
		Info:      info,
		Locations: []admindb.Location{{MSU: d.MSU, Disk: d.N}},
	})
}

// Start begins listening and serving.
func (c *Coordinator) Start() error {
	listen := c.cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("coordinator: listen %s: %w", c.cfg.Addr, err)
	}
	c.ln = ln
	c.wg.Add(1)
	go c.acceptLoop()
	return nil
}

// Addr reports the listen address (useful with ":0").
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return c.cfg.Addr
	}
	return c.ln.Addr().String()
}

// Close shuts the Coordinator down. Requests parked on the pending
// queue are woken to see it closed; Close waits for them.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	c.signalRelease()
	ln := c.ln
	var peers []*wire.Peer
	for _, m := range c.msus {
		if m.peer != nil {
			peers = append(peers, m.peer)
		}
	}
	for _, s := range c.sessions {
		if s.peer != nil {
			peers = append(peers, s.peer)
		}
	}
	c.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, p := range peers {
		p.Close() //nolint:errcheck // teardown: the listener close error is the one reported
	}
	c.wg.Wait()
	return err
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
}

// signalRelease wakes queued requests. Callers hold c.mu.
func (c *Coordinator) signalRelease() {
	close(c.release)
	c.release = make(chan struct{})
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		newConnCtx(c, conn)
	}
}

// connCtx is the per-connection dispatcher. A connection starts
// roleless; the first message binds it to a client session or an MSU.
type connCtx struct {
	c    *Coordinator
	peer *wire.Peer

	mu      sync.Mutex
	session *session
	msu     *msuState
}

func newConnCtx(c *Coordinator, conn net.Conn) *connCtx {
	ctx := &connCtx{c: c}
	ctx.peer = wire.NewPeerStopped(conn, ctx.handle, ctx.down)
	ctx.peer.Start()
	return ctx
}

func (ctx *connCtx) down(error) {
	ctx.mu.Lock()
	s, m := ctx.session, ctx.msu
	ctx.mu.Unlock()
	if s != nil {
		ctx.c.dropSession(s)
	}
	if m != nil {
		ctx.c.msuDown(m)
	}
}

// handle dispatches one inbound message.
func (ctx *connCtx) handle(msgType string, body json.RawMessage) (any, error) {
	c := ctx.c
	c.om.requests.Inc()

	decode := func(v any) error {
		if len(body) == 0 {
			return nil
		}
		if err := json.Unmarshal(body, v); err != nil {
			return fmt.Errorf("%w: %v", core.ErrBadRequest, err)
		}
		return nil
	}

	switch msgType {
	case wire.TypeHello:
		var req wire.Hello
		if err := decode(&req); err != nil {
			return nil, err
		}
		return ctx.hello(req)
	case wire.TypeMSUHello:
		var req wire.MSUHello
		if err := decode(&req); err != nil {
			return nil, err
		}
		return ctx.msuHello(req)
	case wire.TypeListContent:
		return c.listContent(), nil
	case wire.TypeListTypes:
		return c.listTypes(), nil
	case wire.TypeStatusV2:
		return c.statusV2(), nil
	case wire.TypeEvents:
		var req wire.EventsRequest
		if err := decode(&req); err != nil {
			return nil, err
		}
		return ctx.events(req)
	case wire.TypeRegisterPort:
		var req wire.RegisterPort
		if err := decode(&req); err != nil {
			return nil, err
		}
		return ctx.registerPort(req)
	case wire.TypeUnregisterPort:
		var req wire.UnregisterPort
		if err := decode(&req); err != nil {
			return nil, err
		}
		return nil, ctx.unregisterPort(req)
	case wire.TypePlay:
		var req wire.Play
		if err := decode(&req); err != nil {
			return nil, err
		}
		return ctx.play(req)
	case wire.TypeRecord:
		var req wire.Record
		if err := decode(&req); err != nil {
			return nil, err
		}
		return ctx.record(req)
	case wire.TypeAddType:
		var req wire.AddType
		if err := decode(&req); err != nil {
			return nil, err
		}
		if err := ctx.requireAdmin(); err != nil {
			return nil, err
		}
		return nil, c.addType(req.Type)
	case wire.TypeDeleteContent:
		var req wire.DeleteContent
		if err := decode(&req); err != nil {
			return nil, err
		}
		if err := ctx.requireAdmin(); err != nil {
			return nil, err
		}
		return nil, c.deleteContent(req.Content)
	case wire.TypeCacheReport:
		var req wire.CacheReport
		if err := decode(&req); err != nil {
			return nil, err
		}
		ctx.cacheReport(req)
		return nil, nil
	case wire.TypeStreamEnded:
		var req wire.StreamEnded
		if err := decode(&req); err != nil {
			return nil, err
		}
		c.streamEnded(req)
		return nil, nil
	case wire.TypeRecordingDone:
		var req wire.RecordingDone
		if err := decode(&req); err != nil {
			return nil, err
		}
		return nil, ctx.recordingDone(req)
	case wire.TypeReplicateDone:
		var req wire.ReplicateDone
		if err := decode(&req); err != nil {
			return nil, err
		}
		return nil, ctx.replicateDone(req)
	case wire.TypeReplicateFailed:
		var req wire.ReplicateFailed
		if err := decode(&req); err != nil {
			return nil, err
		}
		ctx.replicateFailed(req)
		return nil, nil
	default:
		return nil, fmt.Errorf("%w: unknown message %q", core.ErrBadRequest, msgType)
	}
}

// hello opens a client session, authenticating the user against the
// customer database.
func (ctx *connCtx) hello(req wire.Hello) (*wire.Welcome, error) {
	c := ctx.c
	// One protocol generation: the peer must speak ours exactly (a hello
	// without the field reads as 0), and the error names both sides so the
	// operator knows which end to upgrade.
	if req.ProtoVersion != wire.ProtoVersion {
		return nil, fmt.Errorf("%w: client speaks protocol v%d, coordinator speaks v%d; upgrade the older side",
			core.ErrBadRequest, req.ProtoVersion, wire.ProtoVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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
	s := &session{
		id:    core.SessionID(ids.NextSession),
		user:  req.User,
		role:  role,
		peer:  ctx.peer,
		ports: make(map[string]*core.DisplayPort),
	}
	c.sessions[s.id] = s
	ctx.mu.Lock()
	ctx.session = s
	ctx.mu.Unlock()
	c.logf("session %d opened for %q", s.id, req.User)
	return &wire.Welcome{Session: s.id}, nil
}

// dropSession deallocates a session's ports when its connection dies
// (§2.1: "When this session is dropped, the Coordinator deallocates
// its local representation of the ports").
func (c *Coordinator) dropSession(s *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.sessions, s.id)
	c.logf("session %d dropped (%d ports deallocated)", s.id, len(s.ports))
}

// requireSession fetches this connection's session.
func (ctx *connCtx) requireSession() (*session, error) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.session == nil {
		return nil, fmt.Errorf("%w: say hello first", core.ErrNoSuchSession)
	}
	return ctx.session, nil
}

// requireAdmin checks the session holds administrative privileges.
func (ctx *connCtx) requireAdmin() error {
	s, err := ctx.requireSession()
	if err != nil {
		return err
	}
	if s.role != RoleAdmin {
		return fmt.Errorf("%w: user %q is not an administrator", core.ErrPermission, s.user)
	}
	return nil
}

func (c *Coordinator) listContent() *wire.ContentList {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &wire.ContentList{}
	for _, rec := range c.db.Contents() {
		info := rec.Info
		info.Replicas = rec.Holders()
		out.Items = append(out.Items, info)
	}
	return out
}

func (c *Coordinator) listTypes() *wire.TypeList {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &wire.TypeList{Types: c.db.Types()}
}

// cacheReport records one disk's advertised cache heat and wakes the
// pending queue: a play that was waiting on a disk bandwidth slot may
// now admit without one.
func (ctx *connCtx) cacheReport(req wire.CacheReport) {
	c := ctx.c
	ctx.mu.Lock()
	m := ctx.msu
	ctx.mu.Unlock()
	if m == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.msus[m.id] != m || req.Disk < 0 || req.Disk >= len(m.disks) {
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
	c.signalRelease()
}

// cacheRatioStep is the hit-percentage movement that earns a disk a new
// cache-ratio event on the timeline.
const cacheRatioStep = 10

// addType installs a content type (administrative).
func (c *Coordinator) addType(t core.ContentType) error {
	if err := t.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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

// deleteContent removes an item that is not being played or recorded.
func (c *Coordinator) deleteContent(name string) error {
	var aborts []replAbort
	defer func() { sendAborts(aborts) }()
	c.mu.Lock()
	rec := c.db.Content(name)
	if rec == nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", core.ErrNoSuchContent, name)
	}
	for _, a := range c.active {
		if a.content == name {
			c.mu.Unlock()
			return fmt.Errorf("%w: %q", core.ErrContentInUse, name)
		}
	}
	names := append([]string{name}, rec.Info.Children...)
	// An in-flight copy of anything being deleted dies first: the
	// destination removes its unpublished files when told to abort, and
	// a commit racing the delete is refused in replicateDone.
	aborts = c.abortReplicationsLocked("content deleted", func(r *replication) bool {
		for _, n := range names {
			if r.content == n {
				return true
			}
		}
		return false
	})
	// Every replica on every MSU must go; any holder being down fails
	// the delete (the returning MSU would re-declare the item).
	type target struct {
		peer *wire.Peer
		name string
		size units.ByteSize
		disk core.DiskID
	}
	var targets []target
	for _, n := range names {
		r := c.db.Content(n)
		if r == nil {
			continue
		}
		for _, loc := range r.Locations {
			m := c.msus[loc.MSU]
			if m == nil || !m.alive {
				c.mu.Unlock()
				return fmt.Errorf("%w: holding %q", core.ErrMSUUnavailable, n)
			}
			targets = append(targets, target{peer: m.peer, name: n, size: r.Info.Size, disk: loc.DiskID()})
		}
	}
	c.mu.Unlock()

	for _, t := range targets {
		if err := t.peer.CallTimeout(wire.TypeDeleteContent, wire.DeleteContent{Content: t.name}, nil, msuRPCTimeout); err != nil {
			return fmt.Errorf("coordinator: deleting %q on MSU: %w", t.name, err)
		}
	}
	c.mu.Lock()
	var muts []admindb.Mutation
	for _, t := range targets {
		muts = append(muts, admindb.DeleteContent(t.name))
	}
	if err := c.apply(muts...); err != nil {
		// The MSUs already unlinked the files; the catalog entries stay
		// until the next msuHello stale sweep reconciles them.
		c.mu.Unlock()
		return err
	}
	for _, t := range targets {
		// Return the replica's disk space to the free pool.
		if d := c.diskState(t.disk); d != nil {
			adjustCapacityLocked(d.space, blocksFor(t.size, d.blockSize))
		}
	}
	c.signalRelease()
	c.mu.Unlock()
	return nil
}

// diskState resolves a DiskID. Callers hold c.mu.
func (c *Coordinator) diskState(id core.DiskID) *diskState {
	m := c.msus[id.MSU]
	if m == nil || id.N < 0 || id.N >= len(m.disks) {
		return nil
	}
	return m.disks[id.N]
}

// adjustCapacityLocked returns delta blocks of stored-content space to
// the free pool by shrinking the disk's standing reservation (stored
// content is modelled as a keyless baseline reservation; see msuHello).
func adjustCapacityLocked(l *schedule.Ledger, delta int64) {
	l.AddStanding(-delta) //nolint:errcheck // clamped at zero
}
