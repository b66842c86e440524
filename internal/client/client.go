// Package client is Calliope's client library (§2.1).
//
// A client establishes a session with the Coordinator over TCP, browses
// the table of contents, registers display ports (named UDP
// destinations typed by content type; composite ports are built from
// previously-registered component ports), then plays or records
// content. For each play/record the serving MSU opens a TCP control
// connection back to the client, on which the client issues VCR
// commands: pause, play, seek, fast-forward, fast-backward, quit.
//
// Failure handling (§2.2): if the Coordinator connection breaks the
// client redials with capped exponential backoff and re-registers its
// display ports on the new session. If a stream's MSU fails, the
// Coordinator either re-dispatches the group onto another MSU holding
// the content — the replacement MSU dials a fresh control connection
// and the client seeks it to the last delivered position — or reports
// stream-lost; both surface on the Stream handle.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"calliope/internal/core"
	"calliope/internal/wire"
)

// Options tunes a Client's failure handling.
type Options struct {
	// Dial supplies the TCP dialer for the Coordinator connection; nil
	// means a context-aware net.Dialer. Fault-injection tests pass an
	// injector here (internal/faultinject). A non-nil Dial is not
	// context-aware: DialContext checks cancellation around it but
	// cannot interrupt the dial itself.
	Dial func(network, address string) (net.Conn, error)
	// ReconnectBase and ReconnectCap bound the redial backoff; zero
	// means the wire defaults.
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
}

// Client is one session with a Calliope Coordinator.
type Client struct {
	coordinator string
	user        string
	opts        Options

	vcrLn net.Listener

	mu      sync.Mutex
	peer    *wire.Peer
	session core.SessionID
	groups  map[uint64]*groupState
	vcrWait map[uint64][]chan *vcrState
	// ports remembers successful registrations, in order (composite
	// ports reference earlier component ports), so a reconnected
	// session can be rebuilt.
	ports []wire.RegisterPort
	// connCh is closed while the Coordinator connection is up and
	// replaced when it breaks.
	connCh       chan struct{}
	reconnecting bool
	closed       bool
	quit         chan struct{}
	wg           sync.WaitGroup
}

// groupState is the client's durable view of one stream group. It
// outlives individual MSU control connections: when a group migrates,
// the replacement MSU's connection is swapped in and the channels keep
// delivering.
type groupState struct {
	group    uint64
	vcr      *vcrState // current control connection, nil before first hello
	lastPos  time.Duration
	eof      chan wire.StreamEOF
	migrated chan wire.StreamMigrated
	lost     chan wire.StreamLost
}

// vcrState is one accepted MSU control connection.
type vcrState struct {
	peer  *wire.Peer
	hello wire.VCRHello
	down  chan struct{}
}

// Dial connects to the Coordinator and opens a session for user.
func Dial(coordinator, user string) (*Client, error) {
	return DialContext(context.Background(), coordinator, user, Options{})
}

// DialOptions is Dial with failure-handling knobs.
func DialOptions(coordinator, user string, opts Options) (*Client, error) {
	return DialContext(context.Background(), coordinator, user, opts)
}

// DialContext is the primary constructor: it connects to the
// Coordinator and opens a session for user, abandoning the dial and
// the hello round-trip when ctx is cancelled. Dial and DialOptions are
// thin wrappers over it with a background context.
func DialContext(ctx context.Context, coordinator, user string, opts Options) (*Client, error) {
	c := &Client{
		coordinator: coordinator,
		user:        user,
		opts:        opts,
		groups:      make(map[uint64]*groupState),
		vcrWait:     make(map[uint64][]chan *vcrState),
		connCh:      make(chan struct{}),
		quit:        make(chan struct{}),
	}
	conn, err := c.dialConn(ctx)
	if err != nil {
		return nil, fmt.Errorf("client: dialing coordinator: %w", err)
	}
	peer := c.newCoordPeer(conn)
	var welcome wire.Welcome
	hello := wire.Hello{User: user, ProtoVersion: wire.ProtoVersion}
	if err := peer.CallContext(ctx, wire.TypeHello, hello, &welcome); err != nil {
		peer.Close() //nolint:errcheck // best-effort cleanup; the Call error is what matters
		return nil, err
	}
	c.mu.Lock()
	c.peer = peer
	c.session = welcome.Session
	close(c.connCh)
	c.mu.Unlock()

	host, _, _ := net.SplitHostPort(conn.LocalAddr().String())
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		peer.Close() //nolint:errcheck // best-effort cleanup; the listener error is what matters
		return nil, fmt.Errorf("client: opening control listener: %w", err)
	}
	c.vcrLn = ln
	c.wg.Add(1)
	go c.acceptVCR()
	return c, nil
}

// dialConn opens one Coordinator connection. A caller-supplied Options
// Dial keeps its legacy two-argument shape, so with it only the hello
// round-trip is cancellable, not the dial itself.
func (c *Client) dialConn(ctx context.Context) (net.Conn, error) {
	if c.opts.Dial != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return c.opts.Dial("tcp", c.coordinator)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", c.coordinator)
}

// newCoordPeer wraps a Coordinator connection with the notification
// handler and a down-callback tied to this specific peer, so a stale
// connection's death cannot trigger a second reconnect loop.
func (c *Client) newCoordPeer(conn net.Conn) *wire.Peer {
	var p *wire.Peer
	p = wire.NewPeerStopped(conn, c.handleCoord, func(error) { c.coordDown(p) })
	p.Start()
	return p
}

// handleCoord routes Coordinator notifications to their groups.
func (c *Client) handleCoord(msgType string, body json.RawMessage) (any, error) {
	switch msgType {
	case wire.TypeStreamMigrated:
		var m wire.StreamMigrated
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		g := c.group(m.Group)
		select {
		case g.migrated <- m:
		default:
		}
	case wire.TypeStreamLost:
		var l wire.StreamLost
		if err := json.Unmarshal(body, &l); err != nil {
			return nil, err
		}
		g := c.group(l.Group)
		select {
		case g.lost <- l:
		default:
		}
	}
	return nil, nil
}

// coordDown starts the reconnect loop when the current Coordinator
// connection breaks.
func (c *Client) coordDown(p *wire.Peer) {
	c.mu.Lock()
	if c.closed || c.peer != p || c.reconnecting {
		c.mu.Unlock()
		return
	}
	c.reconnecting = true
	c.connCh = make(chan struct{})
	c.wg.Add(1) // under mu: Close sets closed before waiting
	c.mu.Unlock()
	go c.reconnectLoop()
}

// reconnectLoop redials the Coordinator with capped exponential
// backoff plus jitter until it gets a session back or the client
// closes.
func (c *Client) reconnectLoop() {
	defer c.wg.Done()
	b := wire.Backoff{Base: c.opts.ReconnectBase, Cap: c.opts.ReconnectCap}
	for {
		t := time.NewTimer(b.Next())
		select {
		case <-c.quit:
			t.Stop()
			return
		case <-t.C:
		}
		if c.tryReconnect() {
			return
		}
	}
}

// tryReconnect performs one redial: hello, then replay the remembered
// port registrations onto the new session.
func (c *Client) tryReconnect() bool {
	conn, err := c.dialConn(context.Background())
	if err != nil {
		return false
	}
	peer := c.newCoordPeer(conn)
	var welcome wire.Welcome
	hello := wire.Hello{User: c.user, ProtoVersion: wire.ProtoVersion}
	if err := peer.Call(wire.TypeHello, hello, &welcome); err != nil {
		peer.Close() //nolint:errcheck
		return false
	}
	c.mu.Lock()
	ports := append([]wire.RegisterPort(nil), c.ports...)
	c.mu.Unlock()
	for _, req := range ports {
		if err := peer.Call(wire.TypeRegisterPort, req, nil); err != nil {
			peer.Close() //nolint:errcheck
			return false
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		peer.Close() //nolint:errcheck
		return true
	}
	c.peer = peer
	c.session = welcome.Session
	c.reconnecting = false
	close(c.connCh)
	c.mu.Unlock()
	return true
}

// coordPeer returns the current Coordinator connection.
func (c *Client) coordPeer() *wire.Peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// WaitConnectedContext blocks until the Coordinator connection is up
// (it returns immediately while connected) or ctx ends.
func (c *Client) WaitConnectedContext(ctx context.Context) error {
	c.mu.Lock()
	ch := c.connCh
	c.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("client: not reconnected to coordinator: %w", ctx.Err())
	}
}

// WaitConnected is WaitConnectedContext with a timeout.
func (c *Client) WaitConnected(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := c.WaitConnectedContext(ctx); err != nil {
		return fmt.Errorf("client: not reconnected to coordinator after %v", timeout)
	}
	return nil
}

// Session reports the session identifier the Coordinator assigned (it
// changes after a reconnect).
func (c *Client) Session() core.SessionID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session
}

// ControlAddr is where MSUs dial this client's VCR connections.
func (c *Client) ControlAddr() string { return c.vcrLn.Addr().String() }

// Close ends the session; the Coordinator deallocates its ports.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.quit)
	var peers []*wire.Peer
	for _, g := range c.groups {
		if g.vcr != nil {
			peers = append(peers, g.vcr.peer)
		}
	}
	peer := c.peer
	c.mu.Unlock()
	c.vcrLn.Close()
	for _, p := range peers {
		p.Close() //nolint:errcheck // teardown: the session close error below is the one reported
	}
	err := peer.Close()
	c.wg.Wait()
	return err
}

// group returns the durable state for a stream group, creating it on
// first sight (a migration notice can race the play response).
func (c *Client) group(id uint64) *groupState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.groupLocked(id)
}

func (c *Client) groupLocked(id uint64) *groupState {
	g := c.groups[id]
	if g == nil {
		g = &groupState{
			group:    id,
			eof:      make(chan wire.StreamEOF, 4),
			migrated: make(chan wire.StreamMigrated, 4),
			lost:     make(chan wire.StreamLost, 4),
		}
		c.groups[id] = g
	}
	return g
}

// acceptVCR takes control connections from MSUs and routes them by
// stream group once the MSU's vcr-hello arrives.
func (c *Client) acceptVCR() {
	defer c.wg.Done()
	for {
		conn, err := c.vcrLn.Accept()
		if err != nil {
			return
		}
		st := &vcrState{down: make(chan struct{})}
		st.peer = wire.NewPeerStopped(conn, func(msgType string, body json.RawMessage) (any, error) {
			switch msgType {
			case wire.TypeVCRHello:
				var hello wire.VCRHello
				if err := json.Unmarshal(body, &hello); err != nil {
					return nil, err
				}
				st.hello = hello
				c.registerVCR(hello.Group, st)
				return nil, nil
			case wire.TypeStreamEOF:
				var eof wire.StreamEOF
				if err := json.Unmarshal(body, &eof); err != nil {
					return nil, err
				}
				g := c.group(st.hello.Group)
				g.notePos(&c.mu, eof.Pos)
				select {
				case g.eof <- eof:
				default:
				}
				return nil, nil
			default:
				return nil, fmt.Errorf("client: unexpected %q on control connection", msgType)
			}
		}, func(error) { close(st.down) })
		st.peer.Start()
	}
}

// registerVCR installs a control connection for a group. A second
// hello for the same group means the Coordinator re-dispatched it onto
// another MSU: the stale connection is dropped and the replacement is
// sought to the last position the client saw.
func (c *Client) registerVCR(group uint64, st *vcrState) {
	c.mu.Lock()
	g := c.groupLocked(group)
	old := g.vcr
	g.vcr = st
	pos := g.lastPos
	waiters := c.vcrWait[group]
	delete(c.vcrWait, group)
	c.mu.Unlock()
	for _, w := range waiters {
		w <- st
	}
	if old != nil {
		old.peer.Close() //nolint:errcheck // the failed MSU's connection; usually already dead
		if pos > 0 {
			// Resume from the last delivered offset on the new MSU.
			go func() {
				var ack wire.VCRAck
				st.peer.Call(wire.TypeVCR, wire.VCR{Op: "seek", Pos: pos}, &ack) //nolint:errcheck // the stream still plays from 0 if the seek races a dying conn
			}()
		}
	}
}

// notePos records the furthest delivery position seen for the group.
func (g *groupState) notePos(mu *sync.Mutex, pos time.Duration) {
	mu.Lock()
	if pos > g.lastPos {
		g.lastPos = pos
	}
	mu.Unlock()
}

// waitVCRContext blocks until the MSU's control connection for group
// arrives or ctx ends.
func (c *Client) waitVCRContext(ctx context.Context, group uint64) (*vcrState, error) {
	c.mu.Lock()
	if g, ok := c.groups[group]; ok && g.vcr != nil {
		st := g.vcr
		c.mu.Unlock()
		return st, nil
	}
	ch := make(chan *vcrState, 1)
	c.vcrWait[group] = append(c.vcrWait[group], ch)
	c.mu.Unlock()
	select {
	case st := <-ch:
		return st, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("client: no control connection for group %d: %w", group, ctx.Err())
	}
}

// call performs one Coordinator round-trip bounded by ctx. Every
// request in this file funnels through it, so any blocking call has a
// context-aware core.
func (c *Client) call(ctx context.Context, msgType string, req, resp any) error {
	return c.coordPeer().CallContext(ctx, msgType, req, resp)
}

// ListContent fetches the table of contents.
func (c *Client) ListContent() ([]core.ContentInfo, error) {
	return c.ListContentContext(context.Background())
}

// ListContentContext is ListContent bounded by ctx.
func (c *Client) ListContentContext(ctx context.Context) ([]core.ContentInfo, error) {
	var resp wire.ContentList
	if err := c.call(ctx, wire.TypeListContent, struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// ListTypes fetches the content-type table.
func (c *Client) ListTypes() ([]core.ContentType, error) {
	var resp wire.TypeList
	if err := c.call(context.Background(), wire.TypeListTypes, struct{}{}, &resp); err != nil {
		return nil, err
	}
	return resp.Types, nil
}

// StatusV2 fetches the cluster status: the merged metrics snapshot
// plus per-disk coverage and per-MSU network load.
func (c *Client) StatusV2() (wire.StatusV2, error) {
	return c.StatusV2Context(context.Background())
}

// StatusV2Context is StatusV2 bounded by ctx.
func (c *Client) StatusV2Context(ctx context.Context) (wire.StatusV2, error) {
	var resp wire.StatusV2
	err := c.call(ctx, wire.TypeStatusV2, struct{}{}, &resp)
	return resp, err
}

// Events pages through the Coordinator's event timeline. With
// req.WaitMillis set the Coordinator parks the request until an event
// past req.Since arrives (long poll), so followers need no busy loop.
func (c *Client) Events(req wire.EventsRequest) (wire.EventsReply, error) {
	return c.EventsContext(context.Background(), req)
}

// EventsContext is Events bounded by ctx.
func (c *Client) EventsContext(ctx context.Context, req wire.EventsRequest) (wire.EventsReply, error) {
	var resp wire.EventsReply
	err := c.call(ctx, wire.TypeEvents, req, &resp)
	return resp, err
}

// AddType installs a content type (administrative).
func (c *Client) AddType(t core.ContentType) error {
	return c.call(context.Background(), wire.TypeAddType, wire.AddType{Type: t}, nil)
}

// DeleteContent removes a content item (administrative).
func (c *Client) DeleteContent(name string) error {
	return c.call(context.Background(), wire.TypeDeleteContent, wire.DeleteContent{Content: name}, nil)
}

// RegisterPort declares an atomic display port: a typed UDP data
// destination (and optional protocol-control destination).
func (c *Client) RegisterPort(name, contentType, dataAddr, ctrlAddr string) error {
	return c.registerPort(wire.RegisterPort{
		Name: name, Type: contentType, Addr: dataAddr, Control: ctrlAddr,
	})
}

// RegisterCompositePort declares a composite display port built from
// previously-registered component ports: components maps component
// type name to component port name.
func (c *Client) RegisterCompositePort(name, contentType string, components map[string]string) error {
	return c.registerPort(wire.RegisterPort{
		Name: name, Type: contentType, Components: components,
	})
}

func (c *Client) registerPort(req wire.RegisterPort) error {
	if err := c.call(context.Background(), wire.TypeRegisterPort, req, nil); err != nil {
		return err
	}
	c.mu.Lock()
	c.ports = append(c.ports, req)
	c.mu.Unlock()
	return nil
}

// UnregisterPort drops a display port.
func (c *Client) UnregisterPort(name string) error {
	if err := c.call(context.Background(), wire.TypeUnregisterPort, wire.UnregisterPort{Name: name}, nil); err != nil {
		return err
	}
	c.mu.Lock()
	for i, req := range c.ports {
		if req.Name == name {
			c.ports = append(c.ports[:i], c.ports[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	return nil
}

// waitPollInterval spaces the WaitForContent / WaitStreamsIdle polls.
const waitPollInterval = 10 * time.Millisecond

// WaitForContentContext polls the table of contents until name appears
// or ctx ends — recordings commit asynchronously after Stop, so a
// client that wants to play what it just recorded waits here first.
func (c *Client) WaitForContentContext(ctx context.Context, name string) (core.ContentInfo, error) {
	t := time.NewTimer(waitPollInterval)
	defer t.Stop()
	for {
		items, err := c.ListContentContext(ctx)
		if err != nil {
			return core.ContentInfo{}, err
		}
		for _, it := range items {
			if it.Name == name {
				return it, nil
			}
		}
		select {
		case <-ctx.Done():
			return core.ContentInfo{}, fmt.Errorf("%w: %q not committed: %v", core.ErrNoSuchContent, name, ctx.Err())
		case <-t.C:
			t.Reset(waitPollInterval)
		}
	}
}

// WaitForContent is WaitForContentContext with a timeout.
func (c *Client) WaitForContent(name string, timeout time.Duration) (core.ContentInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	info, err := c.WaitForContentContext(ctx, name)
	if err != nil && ctx.Err() != nil {
		return core.ContentInfo{}, fmt.Errorf("%w: %q not committed after %v", core.ErrNoSuchContent, name, timeout)
	}
	return info, err
}

// WaitStreamsIdleContext polls until the Coordinator reports no active
// streams or ctx ends — stream teardown after Quit is asynchronous.
func (c *Client) WaitStreamsIdleContext(ctx context.Context) error {
	t := time.NewTimer(waitPollInterval)
	defer t.Stop()
	for {
		st, err := c.StatusV2Context(ctx)
		if err != nil {
			return err
		}
		active := st.Snapshot.Gauge(wire.GaugeActiveStreams)
		if active == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("calliope: %d streams still active: %v", active, ctx.Err())
		case <-t.C:
			t.Reset(waitPollInterval)
		}
	}
}

// WaitStreamsIdle is WaitStreamsIdleContext with a timeout.
func (c *Client) WaitStreamsIdle(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := c.WaitStreamsIdleContext(ctx)
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("calliope: streams still active after %v", timeout)
	}
	return err
}

// Stream is a playback handle with VCR controls.
type Stream struct {
	c    *Client
	info wire.PlayOK
	g    *groupState
	vcr  *vcrState // the original control connection, for Down
}

// vcrWaitTimeout bounds how long the timeout-flavoured Play and Record
// wait for the serving MSU's control connection to arrive.
const vcrWaitTimeout = 10 * time.Second

// Play asks Calliope to deliver content to the named display port. If
// wait is set the request queues while resources are busy. The request
// itself waits indefinitely (a queued play admits whenever resources
// free up); use PlayContext to bound it.
func (c *Client) Play(content, port string, wait bool) (*Stream, error) {
	return c.play(context.Background(), content, port, wait, vcrWaitTimeout)
}

// PlayContext is Play bounded by ctx, covering both the admission
// round-trip (which with wait set can queue indefinitely) and the wait
// for the MSU's control connection.
func (c *Client) PlayContext(ctx context.Context, content, port string, wait bool) (*Stream, error) {
	return c.play(ctx, content, port, wait, 0)
}

func (c *Client) play(ctx context.Context, content, port string, wait bool, vcrTimeout time.Duration) (*Stream, error) {
	var resp wire.PlayOK
	err := c.call(ctx, wire.TypePlay, wire.Play{
		Content: content, Port: port, ControlAddr: c.ControlAddr(), Wait: wait,
	}, &resp)
	if err != nil {
		return nil, err
	}
	vcr, err := c.waitVCRBounded(ctx, resp.Group, vcrTimeout)
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, info: resp, g: c.group(resp.Group), vcr: vcr}, nil
}

// waitVCRBounded waits for the group's control connection under ctx,
// additionally capped at timeout when nonzero.
func (c *Client) waitVCRBounded(ctx context.Context, group uint64, timeout time.Duration) (*vcrState, error) {
	if timeout > 0 {
		bounded, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		st, err := c.waitVCRContext(bounded, group)
		if err != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("client: no control connection for group %d after %v", group, timeout)
		}
		return st, err
	}
	return c.waitVCRContext(ctx, group)
}

// Info reports the scheduling result.
func (s *Stream) Info() wire.PlayOK { return s.info }

// Length reports the content length.
func (s *Stream) Length() time.Duration { return s.info.Length }

// EOF delivers a notification when playback reaches end of content.
func (s *Stream) EOF() <-chan wire.StreamEOF { return s.g.eof }

// Down is closed if the MSU's control connection is lost. After a
// migration the channel refers to the failed connection; use Migrated
// and Lost to learn the group's fate.
func (s *Stream) Down() <-chan struct{} { return s.vcr.down }

// Migrated delivers a notice when the Coordinator re-dispatches this
// group onto another MSU after a failure.
func (s *Stream) Migrated() <-chan wire.StreamMigrated { return s.g.migrated }

// Lost delivers a notice when the Coordinator gives up on this group
// after a failure (no replica, or the queue deadline passed).
func (s *Stream) Lost() <-chan wire.StreamLost { return s.g.lost }

// NotePosition records the furthest delivery offset the application
// has consumed; after a migration the replacement stream resumes from
// here.
func (s *Stream) NotePosition(pos time.Duration) { s.g.notePos(&s.c.mu, pos) }

// currentVCR is the live control connection for this stream's group.
func (s *Stream) currentVCR() *vcrState {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.g.vcr != nil {
		return s.g.vcr
	}
	return s.vcr
}

func (s *Stream) command(op string, pos time.Duration) (wire.VCRAck, error) {
	var ack wire.VCRAck
	err := s.currentVCR().peer.Call(wire.TypeVCR, wire.VCR{Op: op, Pos: pos}, &ack)
	if err == nil {
		s.g.notePos(&s.c.mu, ack.Pos)
	}
	return ack, err
}

// Pause halts delivery, keeping position.
func (s *Stream) Pause() (wire.VCRAck, error) { return s.command("pause", 0) }

// Resume restarts normal-rate delivery.
func (s *Stream) Resume() (wire.VCRAck, error) { return s.command("play", 0) }

// Seek repositions playback to pos (an offset from the start).
func (s *Stream) Seek(pos time.Duration) (wire.VCRAck, error) { return s.command("seek", pos) }

// FastForward switches to the fast-forward companion file.
func (s *Stream) FastForward() (wire.VCRAck, error) { return s.command("fast-forward", 0) }

// FastBackward switches to the fast-backward companion file.
func (s *Stream) FastBackward() (wire.VCRAck, error) { return s.command("fast-backward", 0) }

// Quit terminates the stream group and frees its server resources.
func (s *Stream) Quit() error {
	_, err := s.command("quit", 0)
	return err
}

// Recording is a record-session handle.
type Recording struct {
	c    *Client
	info wire.RecordOK
	vcr  *vcrState
}

// Record asks Calliope to record content of the given type arriving
// from this client. The returned handle's Sinks say where to send the
// media. estimate is the client's recording-length estimate, from
// which the Coordinator reserves disk space.
func (c *Client) Record(content, contentType, port string, estimate time.Duration, wait bool) (*Recording, error) {
	return c.record(context.Background(), content, contentType, port, estimate, wait, vcrWaitTimeout)
}

// RecordContext is Record bounded by ctx.
func (c *Client) RecordContext(ctx context.Context, content, contentType, port string, estimate time.Duration, wait bool) (*Recording, error) {
	return c.record(ctx, content, contentType, port, estimate, wait, 0)
}

func (c *Client) record(ctx context.Context, content, contentType, port string, estimate time.Duration, wait bool, vcrTimeout time.Duration) (*Recording, error) {
	var resp wire.RecordOK
	err := c.call(ctx, wire.TypeRecord, wire.Record{
		Content: content, Type: contentType, Port: port,
		Estimate: estimate, ControlAddr: c.ControlAddr(), Wait: wait,
	}, &resp)
	if err != nil {
		return nil, err
	}
	vcr, err := c.waitVCRBounded(ctx, resp.Group, vcrTimeout)
	if err != nil {
		return nil, err
	}
	return &Recording{c: c, info: resp, vcr: vcr}, nil
}

// Info reports the scheduling result.
func (r *Recording) Info() wire.RecordOK { return r.info }

// Sinks lists where to send each component's media.
func (r *Recording) Sinks() []wire.RecordStream { return r.info.Streams }

// Sink returns the data address for a component type ("" if absent).
func (r *Recording) Sink(contentType string) (data, ctrl string) {
	for _, s := range r.info.Streams {
		if s.Type == contentType {
			return s.DataAddr, s.CtrlAddr
		}
	}
	return "", ""
}

// Lost delivers a notice if the recording's MSU fails (recordings
// cannot migrate: the data lives only on the failed MSU).
func (r *Recording) Lost() <-chan wire.StreamLost {
	return r.c.group(r.info.Group).lost
}

// Stop ends the recording; the MSU commits it and reclaims any
// over-estimated space.
func (r *Recording) Stop() error {
	var ack wire.VCRAck
	return r.vcr.peer.Call(wire.TypeVCR, wire.VCR{Op: "quit"}, &ack)
}
