package coordinator

import (
	"fmt"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/schedule"
	"calliope/internal/trace"
	"calliope/internal/wire"
)

// connID names one control connection; the shell maps it to its peer.
type connID uint64

// engine is the Coordinator's core (see the package comment). An input
// changes the catalog itself, through apply, so a mutation is durable
// before the request it answers is acknowledged; what else it decides
// goes to the outbox (out) for the shell to take.
type engine struct {
	cfg      Config
	db       *admindb.DB // changed only through apply
	msus     map[core.MSUID]*msuState
	sessions map[core.SessionID]*session
	bound    map[connID]any // what each connection said hello as: *session or *msuState
	active   map[core.StreamID]*activeStream
	// starting holds the dispatches whose StartStreams are out, by group:
	// an MSU failing under one leaves its recovery to the start's outcome.
	starting map[uint64]*dispatch
	// replications tracks in-flight MSU-to-MSU content transfers by
	// order ID; each holds ledger reservations on both ends.
	replications map[uint64]*replication
	// dereplicating marks contents with a cold-replica drop in flight,
	// so one space-pressure report cannot plan the same drop twice.
	dereplicating map[string]bool
	nextRepl      uint64
	// queue is the pending queue (§2.2: the Coordinator "queues requests
	// that cannot be satisfied"), in arrival order. releases counts the
	// times resources came free: a waiting request is tried again only
	// after a release later than its last refusal, so what a refusal
	// itself rolled back never re-runs it.
	queue    []*waiting
	releases uint64
	// obs is the metrics registry and event timeline (DESIGN.md §3i); om,
	// the Coordinator's handles on it.
	obs    *obs.Registry
	om     coordMetrics
	out    effects
	closed bool
}

// effects is what the inputs since the last take decided.
type effects struct {
	calls   []call
	notes   []note
	answers []answer
	wake    time.Time // the pending queue's earliest deadline; zero if none
}

// A call is an RPC to an MSU whose outcome is the next input, then. Its
// owner is the parked request whose goroutine makes it, 0 for none.
type call struct {
	owner     uint64
	to        connID
	typ       string
	req, resp any
	then      func(now time.Time, err error)
}

// A note is a one-way message: StopStream or ReplicateAbort to an MSU,
// stream-migrated or stream-lost to a session.
type note struct {
	to   connID
	typ  string
	body any
}

// An answer is the reply to a request that was handed a ticket (owner).
type answer struct {
	owner uint64
	v     any
	err   error
}

func (c *engine) rpc(owner uint64, to connID, typ string, req, resp any, then func(time.Time, error)) {
	c.out.calls = append(c.out.calls, call{owner, to, typ, req, resp, then})
}
func (c *engine) notify(to connID, typ string, body any) {
	c.out.notes = append(c.out.notes, note{to, typ, body})
}
func (c *engine) answer(owner uint64, v any, err error) {
	c.out.answers = append(c.out.answers, answer{owner, v, err})
}

// take ends an input: the pending queue gets a pass if resources came
// free, and the outbox is handed over with the queue's next deadline.
func (c *engine) take(now time.Time) effects {
	c.runQueue(now)
	fx := c.out
	c.out = effects{}
	parked := 0
	for _, w := range c.queue {
		if w.counted() {
			parked++
		}
		if fx.wake.IsZero() || w.deadline.Before(fx.wake) {
			fx.wake = w.deadline
		}
	}
	c.om.parked.Set(int64(parked))
	return fx
}

// newEngine builds the core over cfg.Store (nil: an in-memory one).
func newEngine(cfg Config, reg *obs.Registry) (*engine, error) {
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 30 * time.Second
	}
	db := cfg.Store
	if db == nil {
		db = admindb.NewMem()
	}
	c := &engine{
		cfg:           cfg,
		db:            db,
		msus:          make(map[core.MSUID]*msuState),
		sessions:      make(map[core.SessionID]*session),
		bound:         make(map[connID]any),
		active:        make(map[core.StreamID]*activeStream),
		starting:      make(map[uint64]*dispatch),
		replications:  make(map[uint64]*replication),
		dereplicating: make(map[string]bool),
		obs:           reg,
		om:            newCoordMetrics(reg),
	}
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
// after a nil return. Callers with no one to refuse drop the error: it
// is counted and logged here.
func (c *engine) apply(muts ...admindb.Mutation) error {
	if err := c.db.Apply(muts...); err != nil {
		c.om.applyErrors.Inc()
		c.logf("admindb: %v", err)
		return fmt.Errorf("coordinator: persisting administrative state: %w", err)
	}
	return nil
}

func (c *engine) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
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

type msuState struct {
	id    core.MSUID
	conn  connID
	alive bool
	// transferAddr is the MSU's replication transfer listener, where
	// peer MSUs pull content copies from; empty when not advertised.
	transferAddr string
	disks        []*diskState
	// lastObs is the MSU's last cumulative metrics snapshot: cacheReport
	// merges only the delta since it, so nothing double-counts. lastReport
	// is the sequence number of this registration's last report taken.
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
	conn  connID
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

// diskState resolves a DiskID.
func (c *engine) diskState(id core.DiskID) *diskState {
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

// waiting is one request on the pending queue: refused as busy, it
// waits for a release or its deadline. Every kind waits the same way,
// so the queue's gauge, counters, wait histogram and event are kept in
// this one place. owner is its ticket, 0 for an orphaned group; session
// the client's.
type waiting struct {
	owner           uint64
	session         core.SessionID
	conn            connID // an MSU's hello's connection
	req             any    // *wire.Play, *wire.Record, *orphan or *wire.MSUHello
	since, deadline time.Time
	tried           uint64 // releases at its last refusal
	why             error  // that refusal; nil until the first
}

// counted reports whether w shows on the admission instruments: a
// re-registering MSU's hello waits on the queue but is no admission.
func (w *waiting) counted() bool {
	_, hello := w.req.(*wire.MSUHello)
	return !hello
}

// busyError marks a refusal that waiting on the pending queue could
// cure — resources held, an MSU down — as opposed to a request that can
// never be admitted as asked.
type busyError struct{ error }

func (e busyError) Unwrap() error { return e.error }

func busy(format string, args ...any) error { return busyError{fmt.Errorf(format, args...)} }

func isBusy(err error) bool {
	_, ok := err.(busyError)
	return ok
}

// release records that resources came free: the waiting requests get
// another pass before the input ends.
func (c *engine) release() { c.releases++ }

// request queues a fresh request, to be tried when the input ends;
// refused as busy, it waits until its deadline (a zero one: it may not
// wait).
func (c *engine) request(now time.Time, w *waiting) {
	w.since = now
	if c.closed {
		c.answer(w.owner, nil, core.ErrSessionClosed)
		return
	}
	c.queue = append(c.queue, w)
}

// admit runs one pass of the admission path for w: nil when it is
// placed (or needs placing no more), a busy error to keep it waiting.
func (c *engine) admit(w *waiting) error {
	switch r := w.req.(type) {
	case *wire.Play:
		return c.admitPlay(w, r)
	case *wire.Record:
		return c.admitRecord(w, r)
	case *orphan:
		return c.admitOrphan(w, r)
	default:
		return c.admitMSU(w, r.(*wire.MSUHello))
	}
}

// hold keeps w waiting after a busy refusal; the first one counts it
// queued.
func (c *engine) hold(w *waiting, err error) {
	if w.why == nil && w.counted() {
		c.om.queued.Inc()
		ev := obs.Event{Kind: obs.EvQueue, Session: uint64(w.session), Disk: -1, Detail: err.Error()}
		switch r := w.req.(type) {
		case *wire.Play:
			ev.Content = r.Content
		case *wire.Record:
			ev.Content = r.Content
		case *orphan:
			ev.Group = r.id
		}
		c.event(ev)
	}
	w.tried, w.why = c.releases, err
}

// refuse ends w with err: its request hears it, an orphaned group's
// client hears it lost.
func (c *engine) refuse(w *waiting, err error) {
	if w.counted() {
		c.om.rejected.Inc()
	}
	if g, ok := w.req.(*orphan); ok {
		c.lost(w.session, g.id, err.Error())
		return
	}
	c.answer(w.owner, nil, err)
}

// runQueue gives every request not yet tried, or refused before the
// latest release, a pass, in arrival order. One that does not fit holds
// back nothing behind it.
func (c *engine) runQueue(now time.Time) {
	for again := true; again; {
		again = false
		for i := 0; i < len(c.queue); i++ {
			w := c.queue[i]
			if w.why != nil && w.tried == c.releases {
				continue
			}
			before := c.releases
			err := c.admit(w)
			again = again || c.releases != before
			if isBusy(err) && !w.deadline.IsZero() {
				c.hold(w, err)
				continue
			}
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			i--
			if err != nil {
				c.refuse(w, err)
			} else if w.why != nil && w.counted() {
				c.om.queueWait.Observe(now.Sub(w.since))
			}
		}
	}
}

// tick refuses every waiting request whose deadline has come.
func (c *engine) tick(now time.Time) {
	var kept []*waiting
	for _, w := range c.queue {
		switch {
		case now.Before(w.deadline):
			kept = append(kept, w)
		case w.counted():
			c.refuse(w, fmt.Errorf("%w: queued past deadline (%v)", core.ErrNoResources, w.why))
		default:
			c.refuse(w, w.why)
		}
	}
	c.queue = kept
}

// close shuts the core: waiting requests hear ErrSessionClosed (an
// orphaned group's client nothing), and nothing is admitted after it.
func (c *engine) close() {
	c.closed = true
	for _, w := range c.queue {
		if w.owner != 0 {
			c.answer(w.owner, nil, core.ErrSessionClosed)
		}
	}
	c.queue = nil
}
