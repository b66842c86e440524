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
	"slices"
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
	// groups holds each stream group until its end is final: a Quit or
	// Stop the MSU acknowledged, a stream-lost notice, or Close.
	groups map[uint64]*groupState
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

// groupState is the client's one record of a stream group, under
// Client.mu but for its channels; a Stream or Recording is a handle on
// it. A migration moves msu and streams and swaps in the replacement
// MSU's connection; the channels keep delivering.
type groupState struct {
	group    uint64
	msu      core.MSUID // where the group plays now, and under which streams
	streams  []wire.StreamInfo
	vcr      *vcrState     // current control connection, nil before ready
	ready    chan struct{} // closed at the group's first vcr-hello
	lastPos  time.Duration
	eof      chan wire.StreamEOF
	migrated chan wire.StreamMigrated
	lost     chan wire.StreamLost
}

// vcrState is one accepted MSU control connection.
type vcrState struct {
	peer *wire.Peer
	down chan struct{}
}

// Dial connects to the Coordinator and opens a session for user.
func Dial(coordinator, user string) (*Client, error) {
	return DialContext(context.Background(), coordinator, user, Options{})
}

// DialContext is the primary constructor: it connects to the
// Coordinator and opens a session for user, abandoning the dial and
// the hello round-trip when ctx is cancelled. Dial is a thin wrapper
// over it with a background context and no options.
func DialContext(ctx context.Context, coordinator, user string, opts Options) (*Client, error) {
	c := &Client{
		coordinator: coordinator,
		user:        user,
		opts:        opts,
		groups:      make(map[uint64]*groupState),
		connCh:      make(chan struct{}),
		quit:        make(chan struct{}),
	}
	peer, session, err := c.openSession(ctx)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.peer = peer
	c.session = session
	close(c.connCh)
	c.mu.Unlock()

	host, _, _ := net.SplitHostPort(peer.LocalAddr().String())
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

// openSession dials the Coordinator and says hello on the new
// connection. A caller-supplied Options Dial keeps its legacy
// two-argument shape, so with it only the hello round-trip is
// cancellable, not the dial itself. The connection's down-callback is
// tied to its own peer, so a stale connection's death cannot start a
// second reconnect loop.
func (c *Client) openSession(ctx context.Context) (*wire.Peer, core.SessionID, error) {
	var conn net.Conn
	err := ctx.Err()
	switch {
	case err != nil:
	case c.opts.Dial != nil:
		conn, err = c.opts.Dial("tcp", c.coordinator)
	default:
		conn, err = new(net.Dialer).DialContext(ctx, "tcp", c.coordinator)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("client: dialing coordinator: %w", err)
	}
	var p *wire.Peer
	p = wire.NewPeerStopped(conn, c.handleCoord, func(error) { c.coordDown(p) })
	p.Start()
	var welcome wire.Welcome
	hello := wire.Hello{User: c.user, ProtoVersion: wire.ProtoVersion}
	if err := p.CallContext(ctx, wire.TypeHello, hello, &welcome); err != nil {
		p.Close() //nolint:errcheck // best-effort cleanup; the Call error is what matters
		return nil, 0, err
	}
	return p, welcome.Session, nil
}

// handleCoord routes Coordinator notifications to their groups.
func (c *Client) handleCoord(msgType string, body json.RawMessage) (any, error) {
	switch msgType {
	case wire.TypeStreamMigrated:
		var m wire.StreamMigrated
		if err := json.Unmarshal(body, &m); err != nil {
			return nil, err
		}
		c.mu.Lock()
		g := c.group(m.Group)
		g.msu, g.streams = m.MSU, m.Streams
		c.mu.Unlock()
		deliver(g.migrated, m)
	case wire.TypeStreamLost:
		var l wire.StreamLost
		if err := json.Unmarshal(body, &l); err != nil {
			return nil, err
		}
		c.mu.Lock()
		g := c.group(l.Group)
		delete(c.groups, l.Group)
		c.mu.Unlock()
		deliver(g.lost, l)
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
	peer, session, err := c.openSession(context.Background())
	if err != nil {
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
	c.session = session
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
func (c *Client) WaitConnectedContext(ctx context.Context) error { //nolint:testonly // DESIGN.md's failure handling: how an application waits out a redial
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
	clear(c.groups)
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

// group returns the record of a stream group, creating it on first
// sight (a notice can beat the play's answer on the wire). c.mu is held.
func (c *Client) group(id uint64) *groupState {
	g := c.groups[id]
	if g == nil {
		g = &groupState{
			group:    id,
			ready:    make(chan struct{}),
			eof:      make(chan wire.StreamEOF, 4),
			migrated: make(chan wire.StreamMigrated, 4),
			lost:     make(chan wire.StreamLost, 4),
		}
		c.groups[id] = g
	}
	return g
}

// deliver hands a notice to its handle's channel without blocking: a
// handle that does not read its notices misses the ones past the buffer.
func deliver[T any](ch chan T, v T) {
	select {
	case ch <- v:
	default:
	}
}

// acceptVCR takes control connections from MSUs; each points at its
// group's record once the MSU's vcr-hello names the group.
func (c *Client) acceptVCR() {
	defer c.wg.Done()
	for {
		conn, err := c.vcrLn.Accept()
		if err != nil {
			return
		}
		st := &vcrState{down: make(chan struct{})}
		var g *groupState // set by the hello; notices run in order on the read loop
		st.peer = wire.NewPeerStopped(conn, func(msgType string, body json.RawMessage) (any, error) {
			switch msgType {
			case wire.TypeVCRHello:
				var hello wire.VCRHello
				if err := json.Unmarshal(body, &hello); err != nil {
					return nil, err
				}
				g = c.registerVCR(hello.Group, st)
				return nil, nil
			case wire.TypeStreamEOF:
				var eof wire.StreamEOF
				if err := json.Unmarshal(body, &eof); err != nil || g == nil { // no hello named its group
					return nil, err
				}
				c.mu.Lock()
				g.lastPos = max(g.lastPos, eof.Pos)
				c.mu.Unlock()
				deliver(g.eof, eof)
				return nil, nil
			default:
				return nil, fmt.Errorf("client: unexpected %q on control connection", msgType)
			}
		}, func(error) { close(st.down) })
		st.peer.Start()
	}
}

// registerVCR installs a control connection for a group and returns the
// group's record. The first hello makes the group ready. A second hello
// means the Coordinator re-dispatched it onto another MSU: the stale
// connection is dropped and the replacement is sought to the last
// position the client saw.
func (c *Client) registerVCR(group uint64, st *vcrState) *groupState {
	c.mu.Lock()
	g := c.group(group)
	old, pos := g.vcr, g.lastPos
	g.vcr = st
	switch {
	case old == nil:
		close(g.ready)
	case pos > 0 && !c.closed:
		// Resume from the last delivered offset on the new MSU.
		c.wg.Add(1) // under mu: Close sets closed before waiting
		go func() {
			defer c.wg.Done()
			var ack wire.VCRAck
			st.peer.Call(wire.TypeVCR, wire.VCR{Op: wire.VCRSeek, Pos: pos}, &ack) //nolint:errcheck // the stream still plays from 0 if the seek races a dying conn
		}()
	}
	c.mu.Unlock()
	if old != nil {
		old.peer.Close() //nolint:errcheck // the failed MSU's connection; usually already dead
	}
	return g
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
	var resp wire.StatusV2
	err := c.call(context.Background(), wire.TypeStatusV2, struct{}{}, &resp)
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
func (c *Client) UnregisterPort(name string) error { //nolint:testonly // §1's port interface: the client half of the Coordinator's unregister-port request
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

// poll runs try every waitPollInterval until it reports done or fails; a
// failure once timeout has passed, or timeout passing first, is expired.
func poll(timeout time.Duration, expired error, try func(ctx context.Context) (bool, error)) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	t := time.NewTimer(waitPollInterval)
	defer t.Stop()
	for {
		done, err := try(ctx)
		switch {
		case err != nil && ctx.Err() != nil:
			return expired
		case err != nil || done:
			return err
		}
		select {
		case <-ctx.Done():
			return expired
		case <-t.C:
			t.Reset(waitPollInterval)
		}
	}
}

// WaitForContent polls the table of contents until name appears or
// timeout passes — recordings commit asynchronously after Stop, so a
// client that wants to play what it just recorded waits here first.
func (c *Client) WaitForContent(name string, timeout time.Duration) (info core.ContentInfo, err error) {
	err = poll(timeout, fmt.Errorf("%w: %q not committed after %v", core.ErrNoSuchContent, name, timeout), func(ctx context.Context) (bool, error) {
		items, err := c.ListContentContext(ctx)
		i := slices.IndexFunc(items, func(it core.ContentInfo) bool { return it.Name == name })
		if i >= 0 {
			info = items[i]
		}
		return i >= 0, err
	})
	return info, err
}

// WaitStreamsIdle polls until the Coordinator reports no active streams
// or timeout passes — stream teardown after Quit is asynchronous.
func (c *Client) WaitStreamsIdle(timeout time.Duration) error {
	return poll(timeout, fmt.Errorf("calliope: streams still active after %v", timeout), func(ctx context.Context) (bool, error) {
		var st wire.StatusV2
		err := c.call(ctx, wire.TypeStatusV2, struct{}{}, &st)
		return err == nil && st.Snapshot.Gauge(wire.GaugeActiveStreams) == 0, err
	})
}

// Stream is a playback handle with VCR controls.
type Stream struct {
	c    *Client
	g    *groupState
	info wire.PlayOK   // the play's answer; the group's record has its MSU and streams now
	down chan struct{} // the control connection the play was answered on
}

// vcrWaitTimeout bounds how long Play and Record wait for the serving
// MSU's control connection. One that gives up leaves the group's record
// in the client until Close: the group may still start on its MSU.
const vcrWaitTimeout = 10 * time.Second

// start sends a play or record request, whose answer sets *group, and
// waits for the serving MSU's control connection for at most
// vcrWaitTimeout. It returns the group's record.
func (c *Client) start(msgType string, req, resp any, group *uint64) (*groupState, error) {
	if err := c.call(context.Background(), msgType, req, resp); err != nil {
		return nil, err
	}
	c.mu.Lock()
	g := c.group(*group)
	c.mu.Unlock()
	t := time.NewTimer(vcrWaitTimeout)
	defer t.Stop()
	select {
	case <-g.ready:
		return g, nil
	case <-t.C:
		return nil, fmt.Errorf("client: no control connection for group %d after %v", *group, vcrWaitTimeout)
	}
}

// Play asks Calliope to deliver content to the named display port. If
// wait is set the request queues while resources are busy. The request
// itself waits indefinitely (a queued play admits whenever resources
// free up).
func (c *Client) Play(content, port string, wait bool) (*Stream, error) {
	var resp wire.PlayOK
	g, err := c.start(wire.TypePlay, wire.Play{
		Content: content, Port: port, ControlAddr: c.ControlAddr(), Wait: wait,
	}, &resp, &resp.Group)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if g.msu == "" { // else a stream-migrated notice beat the answer
		g.msu, g.streams = resp.MSU, resp.Streams
	}
	down := g.vcr.down
	c.mu.Unlock()
	return &Stream{c: c, g: g, info: resp, down: down}, nil
}

// Info reports the scheduling result. After a migration its MSU and
// Streams are the group's new ones, which the Migrated notice named.
func (s *Stream) Info() wire.PlayOK {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	info := s.info
	info.MSU, info.Streams = s.g.msu, s.g.streams
	return info
}

// Length reports the content length.
func (s *Stream) Length() time.Duration { return s.info.Length }

// EOF delivers a notification when playback reaches end of content.
func (s *Stream) EOF() <-chan wire.StreamEOF { return s.g.eof }

// Down is closed if the control connection the play was answered on is
// lost. After a migration the channel refers to the failed connection;
// use Migrated and Lost to learn the group's fate.
func (s *Stream) Down() <-chan struct{} { return s.down } //nolint:testonly // §2.2's failure notice: the MSU's control connection broke

// Migrated delivers a notice when the Coordinator re-dispatches this
// group onto another MSU after a failure; it names the group's new MSU
// and stream IDs, which Info reports from then on.
func (s *Stream) Migrated() <-chan wire.StreamMigrated { return s.g.migrated }

// Lost delivers a notice when the Coordinator gives up on this group
// after a failure (no replica, or the queue deadline passed).
func (s *Stream) Lost() <-chan wire.StreamLost { return s.g.lost }

// command sends one VCR op on the group's live control connection and
// notes the position the ack reports. A quit the MSU acknowledged ends
// the group.
func (c *Client) command(g *groupState, op string, pos time.Duration) (wire.VCRAck, error) {
	c.mu.Lock()
	st := g.vcr
	c.mu.Unlock()
	var ack wire.VCRAck
	err := st.peer.Call(wire.TypeVCR, wire.VCR{Op: op, Pos: pos}, &ack)
	c.mu.Lock()
	switch {
	case err != nil:
	case op == wire.VCRQuit:
		delete(c.groups, g.group)
	default:
		g.lastPos = max(g.lastPos, ack.Pos)
	}
	c.mu.Unlock()
	return ack, err
}

// Pause halts delivery, keeping position.
func (s *Stream) Pause() (wire.VCRAck, error) { return s.c.command(s.g, wire.VCRPause, 0) }

// Resume restarts normal-rate delivery.
func (s *Stream) Resume() (wire.VCRAck, error) { return s.c.command(s.g, wire.VCRPlay, 0) }

// Seek repositions playback to pos (an offset from the start).
func (s *Stream) Seek(pos time.Duration) (wire.VCRAck, error) {
	return s.c.command(s.g, wire.VCRSeek, pos)
}

// FastForward switches to the fast-forward companion file.
func (s *Stream) FastForward() (wire.VCRAck, error) { return s.c.command(s.g, wire.VCRFastForward, 0) }

// FastBackward switches to the fast-backward companion file.
func (s *Stream) FastBackward() (wire.VCRAck, error) {
	return s.c.command(s.g, wire.VCRFastBackward, 0)
}

// Quit terminates the stream group and frees its server resources.
func (s *Stream) Quit() error {
	_, err := s.c.command(s.g, wire.VCRQuit, 0)
	return err
}

// Recording is a record-session handle.
type Recording struct {
	c    *Client
	g    *groupState
	info wire.RecordOK
}

// Record asks Calliope to record content of the given type arriving
// from this client. The returned handle's Sinks say where to send the
// media. estimate is the client's recording-length estimate, from
// which the Coordinator reserves disk space.
func (c *Client) Record(content, contentType, port string, estimate time.Duration, wait bool) (*Recording, error) {
	var resp wire.RecordOK
	g, err := c.start(wire.TypeRecord, wire.Record{
		Content: content, Type: contentType, Port: port,
		Estimate: estimate, ControlAddr: c.ControlAddr(), Wait: wait,
	}, &resp, &resp.Group)
	if err != nil {
		return nil, err
	}
	return &Recording{c: c, g: g, info: resp}, nil
}

// Info reports the scheduling result.
func (r *Recording) Info() wire.RecordOK { return r.info }

// Sinks lists where to send each component's media.
func (r *Recording) Sinks() []wire.RecordStream { return r.info.Streams } //nolint:testonly // §2.2's record interface: every component's sink at once

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
func (r *Recording) Lost() <-chan wire.StreamLost { return r.g.lost } //nolint:testonly // §2.2's failure notice, a recording's only one (it cannot migrate); the client's fault tests read it

// Stop ends the recording; the MSU commits it and reclaims any
// over-estimated space.
func (r *Recording) Stop() error {
	_, err := r.c.command(r.g, wire.VCRQuit, 0)
	return err
}
