// Package wire is Calliope's control-plane messaging: length-prefixed
// JSON messages over TCP, with a small RPC layer on top.
//
// A frame is a 4-byte big-endian length, then exactly the bytes
// json.Marshal(Envelope) writes. Both ends handle that one canonical
// layout by hand: a sender writes the envelope's fields around a body
// json.Marshal already produced, and a reader walks the fields in that
// order, validates the body once and aliases it into the frame. Any
// other layout is ErrBadMessage.
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
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

// WriteMessage frames and writes one envelope: the frame is
// byte-for-byte what json.Marshal(e) writes, behind its length. A body
// is compacted and escaped as json.Marshal would, and an invalid one is
// refused.
func WriteMessage(w io.Writer, e *Envelope) error {
	canon := *e
	if len(e.Body) > 0 {
		body, err := json.Marshal(e.Body)
		if err != nil {
			return fmt.Errorf("wire: encoding %s: %w", e.Type, err)
		}
		canon.Body = body
	}
	f, err := frame(&canon)
	if err != nil {
		return err
	}
	if _, err := w.Write(f); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// frameOverhead is a frame's size beyond its kind, type, body and err
// when no string needs escaping: the length, keys, quotes and the
// longest ID.
const frameOverhead = 4 + len(`{"kind":"","id":,"type":"","body":,"err":""}`) + 20

// frame builds e's frame in one buffer: its length, then the fields in
// json.Marshal's order under its omitempty rules. e.Body is copied as it
// stands, so it must already be what json.Marshal makes of it: valid,
// compact and HTML-escaped, as json.Marshal's own output is.
func frame(e *Envelope) ([]byte, error) {
	dst := make([]byte, 4, frameOverhead+len(e.Kind)+len(e.Type)+len(e.Body)+len(e.Err))
	dst = append(dst, `{"kind":`...)
	dst = appendString(dst, string(e.Kind))
	if e.ID != 0 {
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendUint(dst, e.ID, 10)
	}
	dst = append(dst, `,"type":`...)
	dst = appendString(dst, e.Type)
	if len(e.Body) > 0 {
		dst = append(dst, `,"body":`...)
		dst = append(dst, e.Body...)
	}
	if e.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendString(dst, e.Err)
	}
	dst = append(dst, '}')
	n := len(dst) - 4
	if n > MaxMessage {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	binary.BigEndian.PutUint32(dst, uint32(n))
	return dst, nil
}

// appendString appends s quoted as json.Marshal quotes it. A string of
// printable ASCII with nothing to escape is copied; any other goes
// through json.Marshal itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ReadMessage reads one framed envelope in the layout frame writes;
// any other layout is ErrBadMessage.
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
	p := frameParser{b: raw}
	var e Envelope
	p.expect(`{"kind":`)
	e.Kind = Kind(p.string())
	if p.next(`,"id":`) {
		e.ID = p.id()
	}
	p.expect(`,"type":`)
	e.Type = p.string()
	if p.next(`,"body":`) {
		e.Body = p.value()
	}
	if p.next(`,"err":`) {
		e.Err = p.string()
	}
	p.expect(`}`)
	if p.bad || len(p.b) != 0 {
		return nil, fmt.Errorf("%w: not the canonical envelope layout", ErrBadMessage)
	}
	return &e, nil
}

// frameParser walks a frame in frame's layout. The first step that
// does not fit sets bad, and every later step is a no-op.
type frameParser struct {
	b   []byte
	bad bool
}

// next consumes lit if the frame continues with it.
func (p *frameParser) next(lit string) bool {
	if p.bad || len(p.b) < len(lit) || string(p.b[:len(lit)]) != lit {
		return false
	}
	p.b = p.b[len(lit):]
	return true
}

func (p *frameParser) expect(lit string) {
	if !p.next(lit) {
		p.bad = true
	}
}

// string reads a JSON string. One with escapes or bytes outside
// printable ASCII is decoded by json.Unmarshal, as the whole frame's
// decode would.
func (p *frameParser) string() string {
	if p.bad || len(p.b) == 0 || p.b[0] != '"' {
		p.bad = true
		return ""
	}
	plain := true
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			tok := p.b[:i+1]
			p.b = p.b[i+1:]
			if plain {
				return string(tok[1:i])
			}
			var s string
			if json.Unmarshal(tok, &s) != nil {
				p.bad = true
			}
			return s
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	p.bad = true
	return ""
}

// id reads a nonzero decimal ID, as frame writes it: no sign,
// fraction, exponent or leading zero.
func (p *frameParser) id() uint64 {
	n := 0
	for n < len(p.b) && '0' <= p.b[n] && p.b[n] <= '9' {
		n++
	}
	if p.bad || n == 0 || p.b[0] == '0' {
		p.bad = true
		return 0
	}
	id, err := strconv.ParseUint(string(p.b[:n]), 10, 64)
	p.b = p.b[n:]
	p.bad = err != nil
	return id
}

// value reads one JSON value, validated by json.Valid and aliased into
// the frame.
func (p *frameParser) value() json.RawMessage {
	n := valueLen(p.b)
	if p.bad || n == 0 || n > len(p.b) || !json.Valid(p.b[:n]) {
		p.bad = true
		return nil
	}
	v := p.b[:n:n]
	p.b = p.b[n:]
	return v
}

// valueLen is the length of the JSON value b starts with, found by
// brackets and quotes alone; json.Valid judges the rest. A number or
// literal runs to the first byte none contains, so no whitespace can
// surround the value. More than len(b) means the value is unterminated.
func valueLen(b []byte) int {
	depth := 0
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		case depth == 0:
			for i < len(b) && ('0' <= b[i] && b[i] <= '9' || 'a' <= b[i] && b[i] <= 'z' || strings.IndexByte("-+.E", b[i]) >= 0) {
				i++
			}
			return i
		default:
			continue
		}
		if depth <= 0 {
			return i + 1
		}
	}
	return len(b) + 1
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

// send writes e as one frame with one Write. e.Body comes straight from
// json.Marshal, so frame can take it as it stands.
func (p *Peer) send(e *Envelope) error {
	f, err := frame(e)
	if err != nil {
		return err
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	if _, err := p.conn.Write(f); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
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
