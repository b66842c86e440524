// Package wire is Calliope's control-plane messaging: length-prefixed
// JSON messages over TCP, with a small RPC layer on top.
//
// The paper's control plane (§2) is TCP everywhere: clients talk to the
// Coordinator over TCP, the Coordinator talks to MSUs over TCP (the
// intra-server network), and each MSU opens a TCP control connection to
// the client for VCR commands. Real-time data never flows here — that
// is UDP, handled by the MSU and client packages.
//
// A Peer multiplexes concurrent requests and unsolicited notifications
// over one connection; requests carry IDs and block for their typed
// response. Peers detect failure by connection breakage, which is
// exactly how the Coordinator notices a dead MSU (§2.2).
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// MaxMessage bounds a single control message.
const MaxMessage = 4 << 20

// Package errors.
var (
	ErrTooLarge   = errors.New("wire: message exceeds maximum size")
	ErrClosed     = errors.New("wire: connection closed")
	ErrRemote     = errors.New("wire: remote error")
	ErrBadMessage = errors.New("wire: malformed message")
)

// Kind distinguishes requests, responses, errors and notifications.
type Kind string

// Message kinds.
const (
	KindRequest  Kind = "req"
	KindResponse Kind = "res"
	KindError    Kind = "err"
	KindNotify   Kind = "ntf"
)

// Envelope is the framing around every control message.
type Envelope struct {
	Kind Kind            `json:"kind"`
	ID   uint64          `json:"id,omitempty"`
	Type string          `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
	Err  string          `json:"err,omitempty"`
}

// Decode unmarshals the envelope body into v.
func (e *Envelope) Decode(v any) error {
	if len(e.Body) == 0 {
		return nil
	}
	if err := json.Unmarshal(e.Body, v); err != nil {
		return fmt.Errorf("%w: decoding %s: %v", ErrBadMessage, e.Type, err)
	}
	return nil
}

// WriteMessage frames and writes one envelope.
func WriteMessage(w io.Writer, e *Envelope) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("wire: encoding %s: %w", e.Type, err)
	}
	if len(raw) > MaxMessage {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(raw))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(raw)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("wire: writing body: %w", err)
	}
	return nil
}

// ReadMessage reads one framed envelope.
func ReadMessage(r io.Reader) (*Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessage {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, err
	}
	var e Envelope
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return &e, nil
}

// Handler serves one inbound request or notification. For requests the
// returned value is sent back as the response body; returning an error
// sends an error response instead. Notifications ignore both returns.
type Handler func(msgType string, body json.RawMessage) (any, error)

// Reply is a Handler result for a request whose answer must be on the
// wire before the rest of its work runs: Body is sent as the response,
// then Then runs on the request's own goroutine, whether or not the
// send succeeded. An MSU's answer to a VCR quit is the case — the
// teardown it starts closes the connection the acknowledgement is
// travelling on.
type Reply struct {
	Body any
	Then func()
}

// Peer multiplexes RPC over one TCP connection. Safe for concurrent
// Call/Notify from any goroutine.
type Peer struct {
	conn    net.Conn
	bw      *bufio.Writer
	writeMu sync.Mutex

	handler Handler

	mu      sync.Mutex
	pending map[uint64]chan *Envelope
	closed  bool
	err     error

	nextID atomic.Uint64
	onDown func(error)
	wg     sync.WaitGroup
}

// NewPeer wraps conn and starts serving immediately. handler serves
// inbound requests/notifications (nil rejects all). onDown, if
// non-nil, fires once when the read loop exits — the Coordinator uses
// this as its MSU failure detector.
func NewPeer(conn net.Conn, handler Handler, onDown func(error)) *Peer {
	p := NewPeerStopped(conn, handler, onDown)
	p.Start()
	return p
}

// NewPeerStopped wraps conn without starting the read loop. Use it
// when the handler closes over state that must see the *Peer itself
// (publish the peer, then Start).
func NewPeerStopped(conn net.Conn, handler Handler, onDown func(error)) *Peer {
	return &Peer{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		handler: handler,
		pending: make(map[uint64]chan *Envelope),
		onDown:  onDown,
	}
}

// Start launches the read loop of a NewPeerStopped peer. Call once.
func (p *Peer) Start() {
	p.wg.Add(1)
	go p.readLoop()
}

// RemoteAddr reports the peer's network address.
func (p *Peer) RemoteAddr() net.Addr { return p.conn.RemoteAddr() }

// LocalAddr reports the local end's address.
func (p *Peer) LocalAddr() net.Addr { return p.conn.LocalAddr() }

func (p *Peer) send(e *Envelope) error {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	if err := WriteMessage(p.bw, e); err != nil {
		return err
	}
	return p.bw.Flush()
}

// ErrTimeout reports a CallTimeout deadline expiring before the
// response arrived.
var ErrTimeout = errors.New("wire: call timed out")

// Call sends a request and decodes the response into resp (which may
// be nil). A remote-side error arrives as ErrRemote with the message.
func (p *Peer) Call(msgType string, req, resp any) error {
	return p.CallContext(context.Background(), msgType, req, resp)
}

// CallTimeout is Call with a deadline, reported as ErrTimeout; zero
// means wait indefinitely.
func (p *Peer) CallTimeout(msgType string, req, resp any, timeout time.Duration) error {
	if timeout <= 0 {
		return p.Call(msgType, req, resp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := p.CallContext(ctx, msgType, req, resp)
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %s after %v", ErrTimeout, msgType, timeout)
	}
	return err
}

// CallContext is Call bounded by a context: cancellation or deadline
// expiry abandons the pending slot — a late response is discarded and
// the connection stays usable. The context's error is returned verbatim
// so callers can distinguish cancellation from a deadline.
func (p *Peer) CallContext(ctx context.Context, msgType string, req, resp any) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("wire: %s: %w", msgType, err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("wire: encoding %s request: %w", msgType, err)
	}
	id := p.nextID.Add(1)
	ch := make(chan *Envelope, 1)

	p.mu.Lock()
	if p.closed {
		err := p.err
		p.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	p.pending[id] = ch
	p.mu.Unlock()

	if err := p.send(&Envelope{Kind: KindRequest, ID: id, Type: msgType, Body: body}); err != nil {
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		return err
	}

	var e *Envelope
	var ok bool
	select {
	case e, ok = <-ch:
	case <-ctx.Done():
		p.mu.Lock()
		delete(p.pending, id)
		p.mu.Unlock()
		return fmt.Errorf("wire: %s: %w", msgType, ctx.Err())
	}
	if !ok || e == nil {
		return fmt.Errorf("%w while awaiting %s", ErrClosed, msgType)
	}
	if e.Kind == KindError {
		return fmt.Errorf("%w: %s", ErrRemote, e.Err)
	}
	if resp != nil {
		return e.Decode(resp)
	}
	return nil
}

// Notify sends a one-way message.
func (p *Peer) Notify(msgType string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encoding %s notify: %w", msgType, err)
	}
	return p.send(&Envelope{Kind: KindNotify, Type: msgType, Body: body})
}

// Close tears the connection down; pending calls fail. It waits for
// the read loop to drain, but not for the onDown callback: onDown may
// itself call Close (a dead connection tears down the owning session,
// and teardown closes the peer), so waiting on it would deadlock the
// read-loop goroutine against itself.
func (p *Peer) Close() error {
	err := p.conn.Close()
	p.wg.Wait()
	return err
}

func (p *Peer) readLoop() {
	br := bufio.NewReader(p.conn)
	var readErr error
	for {
		e, err := ReadMessage(br)
		if err != nil {
			readErr = err
			break
		}
		switch e.Kind {
		case KindResponse, KindError:
			p.mu.Lock()
			ch := p.pending[e.ID]
			delete(p.pending, e.ID)
			p.mu.Unlock()
			if ch != nil {
				ch <- e
			}
		case KindRequest:
			// Requests may block (queued plays), so they get their own
			// goroutines.
			go p.serve(e)
		case KindNotify:
			// Notifications are processed inline so their relative
			// order is preserved — the Coordinator depends on
			// recording-done arriving before stream-ended, and clients
			// on vcr-hello before stream-eof. Handlers must not block.
			if p.handler != nil {
				p.handler(e.Type, e.Body) //nolint:errcheck // notifications have no reply path
			}
		}
	}
	p.mu.Lock()
	p.closed = true
	p.err = readErr
	for id, ch := range p.pending {
		close(ch)
		delete(p.pending, id)
	}
	p.mu.Unlock()
	p.conn.Close()
	// The loop's work is done: release Close before running the user
	// callback. onDown frequently calls Close during teardown; if the
	// WaitGroup were still held here, that Close would wait on this
	// very goroutine and both would hang forever.
	p.wg.Done()
	if p.onDown != nil {
		p.onDown(readErr)
	}
}

func (p *Peer) serve(e *Envelope) {
	if p.handler == nil {
		p.send(&Envelope{Kind: KindError, ID: e.ID, Type: e.Type, Err: "no handler"}) //nolint:errcheck
		return
	}
	result, err := p.handler(e.Type, e.Body)
	if err != nil {
		p.send(&Envelope{Kind: KindError, ID: e.ID, Type: e.Type, Err: err.Error()}) //nolint:errcheck
		return
	}
	if r, ok := result.(Reply); ok {
		result = r.Body
		defer r.Then()
	}
	body, err := json.Marshal(result)
	if err != nil {
		p.send(&Envelope{Kind: KindError, ID: e.ID, Type: e.Type, Err: fmt.Sprintf("encoding response: %v", err)}) //nolint:errcheck
		return
	}
	p.send(&Envelope{Kind: KindResponse, ID: e.ID, Type: e.Type, Body: body}) //nolint:errcheck
}
