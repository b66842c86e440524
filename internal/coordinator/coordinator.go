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
// The package is a core and a shell. The core (engine.go, scheduler.go,
// admission.go, replicate.go) has no socket, goroutine, lock or clock:
// each input — a request, an MSU message, a connection dropping, an RPC
// outcome, a tick — is one method, handed the time, that leaves
// decisions (replies; StartStream, StopStream, Replicate, ReplicateAbort
// and DeleteContent for an MSU; migrated and lost notices; the next
// deadline). Its pending queue is data: waiting plays, recordings,
// orphaned groups and re-registering MSUs, in arrival order. The shell
// (this file) owns the listener and connections, feeds the core under
// one mutex and carries the decisions out after it; a parked request
// waits on its own channel for the core's answer.
//
// The administrative database lives in internal/admindb, one copy of
// it: the core changes it only through apply — journal, fsync, then the
// tables — so nothing can drift from what a restart would replay. The
// paper's Calliope "does not recover from Coordinator failures"; ours
// does, when Config.Store is opened on a state directory: a restarted
// Coordinator finds the tables as the last acknowledged request left
// them and reports recordings the crash interrupted. Sessions, ports,
// queued requests and the live ledgers are rebuilt by the reconnect and
// re-registration traffic.
//
// One TCP listener serves both clients and MSUs; the first message on
// a connection (hello vs msu-hello) decides the role.
package coordinator

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/obs"
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

// msuRPCTimeout bounds Coordinator→MSU calls so a wedged MSU cannot
// hang a client request.
const msuRPCTimeout = 15 * time.Second

// Coordinator is the server. Create with New, start with Start.
type Coordinator struct {
	// engine is the core; it is read and fed only under mu.
	*engine
	mu sync.Mutex
	ln net.Listener
	// conns is every open connection by the id the core knows it by, and
	// waiters every parked request's channel by its ticket.
	conns    map[connID]*wire.Peer
	lastConn connID
	waiters  map[uint64]chan delivery
	tickets  uint64
	// timer fires at the pending queue's next deadline.
	timer *time.Timer
	// wg counts the accept loop, the connections' down callbacks and the
	// goroutines making the calls no request waits on; Close waits for
	// them all.
	wg sync.WaitGroup
}

// delivery is what a parked request's goroutine is handed: a call to
// make, or its answer.
type delivery struct {
	call *call
	peer *wire.Peer
	v    any
	err  error
}

// New builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	e, err := newEngine(cfg, obs.New(obs.Options{Now: cfg.Now}))
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		engine:  e,
		conns:   make(map[connID]*wire.Peer),
		waiters: make(map[uint64]chan delivery),
	}, nil
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

// Close shuts the Coordinator down: parked requests hear
// ErrSessionClosed, and every connection is closed and seen to go.
func (c *Coordinator) Close() error {
	c.step(func(time.Time) { c.close() })
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	ln := c.ln
	peers := make([]*wire.Peer, 0, len(c.conns))
	for _, p := range c.conns {
		peers = append(peers, p)
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

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			continue
		}
		c.lastConn++
		id := c.lastConn
		peer := wire.NewPeerStopped(conn, func(msgType string, body json.RawMessage) (any, error) {
			return c.handle(id, msgType, body)
		}, func(error) {
			defer c.wg.Done()
			c.step(func(now time.Time) {
				delete(c.conns, id)
				c.connDown(now, id)
			})
		})
		c.wg.Add(1) // for the down callback: Close waits until the core has seen every connection go
		c.conns[id] = peer
		c.mu.Unlock()
		peer.Start()
	}
}

// step runs one input under c.mu, handing it the time, and carries out
// what the core decided once the lock is dropped.
func (c *Coordinator) step(in func(now time.Time)) {
	c.mu.Lock()
	now := c.cfg.Now()
	in(now)
	carry := c.routeLocked(c.take(now), now)
	c.mu.Unlock()
	carry()
}

// feed is step for an input the request's reply comes straight from.
func (c *Coordinator) feed(in func(now time.Time) (any, error)) (v any, err error) {
	c.step(func(now time.Time) { v, err = in(now) })
	return v, err
}

// wait feeds an input that may park its request, then serves the
// request's own deliveries — the calls it is to make, and last its
// answer — on this goroutine.
func (c *Coordinator) wait(in func(now time.Time, owner uint64)) (any, error) {
	ch := make(chan delivery, 1)
	c.step(func(now time.Time) {
		c.tickets++
		c.waiters[c.tickets] = ch
		in(now, c.tickets)
	})
	for {
		d := <-ch
		if d.call == nil {
			return d.v, d.err
		}
		c.run(d)
	}
}

// routeLocked resolves the core's decisions under c.mu into work for
// after the unlock: notes are sent first (a StopStream before any new
// start), answers and a parked request's calls go to its channel (one
// delivery is outstanding at a time, so the send never blocks), and
// every other call gets a goroutine of its own — the input may have come
// on a read loop the call would wait on. The timer is armed for the
// queue's next deadline.
func (c *Coordinator) routeLocked(fx effects, now time.Time) func() {
	if !fx.wake.IsZero() {
		if c.timer == nil {
			c.timer = time.AfterFunc(fx.wake.Sub(now), c.onTimer)
		} else {
			c.timer.Reset(fx.wake.Sub(now))
		}
	}
	var work []func()
	for _, n := range fx.notes {
		if p := c.conns[n.to]; p != nil {
			work = append(work, func() {
				p.Notify(n.typ, n.body) //nolint:errcheck // the far end may be gone; its own teardown covers it
			})
		}
	}
	for _, a := range fx.answers {
		if ch := c.waiters[a.owner]; ch != nil {
			delete(c.waiters, a.owner)
			work = append(work, func() { ch <- delivery{v: a.v, err: a.err} })
		}
	}
	for i := range fx.calls {
		d := delivery{call: &fx.calls[i], peer: c.conns[fx.calls[i].to]}
		if ch := c.waiters[d.call.owner]; ch != nil {
			work = append(work, func() { ch <- d })
			continue
		}
		c.wg.Add(1)
		work = append(work, func() {
			go func() {
				defer c.wg.Done()
				c.run(d)
			}()
		})
	}
	return func() {
		for _, f := range work {
			f()
		}
	}
}

// errConnGone is the outcome of a call whose connection has closed.
var errConnGone = errors.New("coordinator: MSU connection closed")

// run makes one call a decision ordered and feeds its outcome back.
func (c *Coordinator) run(d delivery) {
	err := errConnGone
	if d.peer != nil {
		err = d.peer.CallTimeout(d.call.typ, d.call.req, d.call.resp, msuRPCTimeout)
	}
	c.step(func(now time.Time) { d.call.then(now, err) })
}

// onTimer feeds the tick: the queue's deadlines that have come.
func (c *Coordinator) onTimer() { c.step(c.tick) }

// decode reads a message body (an empty one is the zero value).
func decode[T any](body json.RawMessage) (T, error) {
	var req T
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return req, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
		}
	}
	return req, nil
}

// input decodes a message and feeds it to in.
func input[T any](c *Coordinator, body json.RawMessage, in func(now time.Time, req T) (any, error)) (any, error) {
	req, err := decode[T](body)
	if err != nil {
		return nil, err
	}
	return c.feed(func(now time.Time) (any, error) { return in(now, req) })
}

// parked decodes a message whose request may wait and feeds it to in.
func parked[T any](c *Coordinator, body json.RawMessage, in func(now time.Time, owner uint64, req T)) (any, error) {
	req, err := decode[T](body)
	if err != nil {
		return nil, err
	}
	return c.wait(func(now time.Time, owner uint64) { in(now, owner, req) })
}

// handle dispatches one message from connection id to its core input.
func (c *Coordinator) handle(id connID, msgType string, body json.RawMessage) (any, error) {
	c.om.requests.Inc()
	switch msgType {
	case wire.TypeHello:
		return input(c, body, func(_ time.Time, req wire.Hello) (any, error) { return c.hello(id, req) })
	case wire.TypeMSUHello:
		return parked(c, body, func(now time.Time, owner uint64, req wire.MSUHello) { c.msuHello(now, owner, id, req) })
	case wire.TypeListContent:
		return c.feed(func(time.Time) (any, error) { return c.listContent(), nil })
	case wire.TypeListTypes:
		return c.feed(func(time.Time) (any, error) { return &wire.TypeList{Types: c.db.Types()}, nil })
	case wire.TypeStatusV2:
		return c.statusV2(), nil
	case wire.TypeEvents:
		req, err := decode[wire.EventsRequest](body)
		if err != nil {
			return nil, err
		}
		return c.events(req)
	case wire.TypeRegisterPort:
		return input(c, body, func(_ time.Time, req wire.RegisterPort) (any, error) { return c.registerPort(id, req) })
	case wire.TypeUnregisterPort:
		return input(c, body, func(_ time.Time, req wire.UnregisterPort) (any, error) { return nil, c.unregisterPort(id, req) })
	case wire.TypePlay:
		return parked(c, body, func(now time.Time, owner uint64, req wire.Play) { c.play(now, owner, id, req) })
	case wire.TypeRecord:
		return parked(c, body, func(now time.Time, owner uint64, req wire.Record) { c.record(now, owner, id, req) })
	case wire.TypeAddType:
		return input(c, body, func(_ time.Time, req wire.AddType) (any, error) { return nil, c.addType(id, req.Type) })
	case wire.TypeDeleteContent:
		return parked(c, body, func(_ time.Time, owner uint64, req wire.DeleteContent) { c.deleteContent(owner, id, req.Content) })
	case wire.TypeCacheReport:
		return input(c, body, func(_ time.Time, req wire.CacheReport) (any, error) { c.cacheReport(id, req); return nil, nil })
	case wire.TypeStreamEnded:
		return input(c, body, func(_ time.Time, req wire.StreamEnded) (any, error) { c.streamEnded(id, req); return nil, nil })
	case wire.TypeRecordingDone:
		return input(c, body, func(_ time.Time, req wire.RecordingDone) (any, error) { return nil, c.recordingDone(id, req) })
	case wire.TypeReplicateDone:
		return input(c, body, func(_ time.Time, req wire.ReplicateDone) (any, error) { return nil, c.replicateDone(id, req) })
	case wire.TypeReplicateFailed:
		return input(c, body, func(_ time.Time, req wire.ReplicateFailed) (any, error) {
			c.replicationFailed(req.ID, req.Reason)
			return nil, nil
		})
	default:
		return nil, fmt.Errorf("%w: unknown message %q", core.ErrBadRequest, msgType)
	}
}
