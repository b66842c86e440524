package msu

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"calliope/internal/core"
	"calliope/internal/wire"
)

// group is a stream group (§2.2): the streams started together for one
// (possibly composite) content item, controlled by a single VCR
// connection so that commands start and stop all members
// simultaneously. All members live on this MSU — the Coordinator never
// splits a group across machines.
type group struct {
	m         *MSU
	id        uint64
	size      int
	clientTCP string

	// vcrMu serialises what a member's disk process is told: the first
	// start, each VCR command and the teardown. The control connection
	// runs every request on its own goroutine, and a stream takes one
	// command at a time (stream.command). Taken before mu, never under it.
	vcrMu sync.Mutex

	mu      sync.Mutex
	members []*stream
	vcr     *wire.Peer
	eofSent bool
	quitted bool
}

func newGroup(m *MSU, id uint64, size int, clientTCP string) *group {
	if size < 1 {
		size = 1
	}
	return &group{m: m, id: id, size: size, clientTCP: clientTCP}
}

// addMember registers a stream; reports whether the group is complete.
// Callers hold m.mu (not g.mu).
func (g *group) addMember(s *stream) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.members = append(g.members, s)
	return len(g.members) == g.size
}

// length reports the group's playback length: the longest member.
func (g *group) length() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	var max time.Duration
	for _, s := range g.members {
		if s.length > max {
			max = s.length
		}
	}
	return max
}

// clientDialAttempts bounds the control-connection retry loop: a
// client that is momentarily busy (or whose accept loop lost the race
// with our dial) gets a few chances before the group is abandoned.
const clientDialAttempts = 4

// connectClient starts every member — playback members begin
// delivering, recorders begin accepting — and then opens the VCR control
// connection to the client and sends the hello. The first packet does
// not wait for the dial: the connection only carries VCR commands, and
// none can arrive before it exists, by which time every member has
// begun. The StartStream reply still waits for it, so a client that
// cannot be reached fails the start, its caller quits the group (which
// stops the members already playing) and the Coordinator rolls back.
// The dial is retried a few times with short backoff; one dropped SYN
// must not kill a stream group that the Coordinator already reserved
// resources for.
func (g *group) connectClient() error {
	members, err := g.begin()
	if err != nil {
		return err
	}
	var conn net.Conn
	b := wire.Backoff{Base: 50 * time.Millisecond, Cap: time.Second}
	for {
		conn, err = g.m.cfg.Dial("tcp", g.clientTCP)
		if err == nil {
			break
		}
		g.mu.Lock()
		quitted := g.quitted
		g.mu.Unlock()
		if quitted || b.Attempts() >= clientDialAttempts-1 {
			return fmt.Errorf("dialing %s: %w", g.clientTCP, err)
		}
		t := time.NewTimer(b.Next())
		select {
		case <-g.m.quit:
			t.Stop()
			return fmt.Errorf("dialing %s: msu shutting down", g.clientTCP)
		case <-t.C:
		}
	}
	peer := wire.NewPeerStopped(conn, g.handleVCR, func(error) {
		// A dead client control connection terminates the group — the
		// Coordinator then reclaims the resources.
		g.quit("client control connection lost")
	})
	hello := wire.VCRHello{Group: g.id, Length: g.length()}
	for _, s := range members {
		hello.Streams = append(hello.Streams, wire.StreamInfo{
			Stream: s.spec.Stream, Content: s.spec.Content, Type: s.spec.Type,
		})
	}
	// The hello goes out before the peer is attached, so it is the first
	// thing on the connection even if a member reaches EOF meanwhile.
	if err := peer.Notify(wire.TypeVCRHello, hello); err != nil {
		conn.Close() //nolint:errcheck // the send already failed
		return err
	}
	g.mu.Lock()
	if g.quitted {
		// Quit while the dial was in flight (MSU shutdown, a Coordinator
		// stop): the members are torn down, and a peer attached now would
		// be one nobody closes.
		g.mu.Unlock()
		conn.Close() //nolint:errcheck // never served
		return fmt.Errorf("group %d: %w", g.id, core.ErrStreamTerminated)
	}
	g.vcr = peer
	g.mu.Unlock()
	peer.Start()
	g.memberEOF() // an end of content reached before the connection existed
	return nil
}

// begin starts every member of a group that has not been quit, ahead of
// its control connection, and returns them. It holds vcrMu, so a quit that
// comes meanwhile waits to stop the members it starts.
func (g *group) begin() ([]*stream, error) {
	g.vcrMu.Lock()
	defer g.vcrMu.Unlock()
	g.mu.Lock()
	quitted := g.quitted
	members := append([]*stream(nil), g.members...)
	g.mu.Unlock()
	if quitted {
		return nil, fmt.Errorf("group %d: %w", g.id, core.ErrStreamTerminated)
	}
	for _, s := range members {
		if s.spec.Record {
			continue // recorders run as soon as packets arrive
		}
		if err := s.playAt(core.Normal, 0); err != nil {
			return nil, fmt.Errorf("starting stream %d: %w", s.spec.Stream, err)
		}
	}
	return members, nil
}

// handleVCR serves the client's VCR commands; every command applies to
// all members of the group.
func (g *group) handleVCR(msgType string, body json.RawMessage) (any, error) {
	if msgType != wire.TypeVCR {
		return nil, fmt.Errorf("%w: unexpected %q on VCR connection", core.ErrBadRequest, msgType)
	}
	var cmd wire.VCR
	if err := json.Unmarshal(body, &cmd); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
	}
	// Held until the command has been applied to every member. A quit
	// that got in first is seen here; one that comes after waits in
	// group.quit for this command before it stops the members.
	g.vcrMu.Lock()
	defer g.vcrMu.Unlock()
	g.mu.Lock()
	if g.quitted {
		g.mu.Unlock()
		return nil, core.ErrStreamTerminated
	}
	members := append([]*stream(nil), g.members...)
	g.mu.Unlock()

	if cmd.Op == "quit" {
		// The ack goes onto the wire first, then this request's goroutine
		// tears the group down; the connection dies with us.
		return wire.Reply{
			Body: &wire.VCRAck{Pos: members[0].position(), Speed: core.Normal.String()},
			Then: func() { g.quit("client quit") },
		}, nil
	}
	for _, s := range members {
		if err := s.vcr(cmd.Op, cmd.Pos); err != nil {
			return nil, err
		}
	}
	return &wire.VCRAck{Pos: members[0].position(), Speed: members[0].speedName()}, nil
}

// memberEOF is called when a member reaches end of content; once all
// have, the client is told (§2.1's play flow ends here, but resources stay
// allocated until quit so the client can seek back).
func (g *group) memberEOF() {
	g.mu.Lock()
	if g.eofSent || g.quitted || g.vcr == nil {
		g.mu.Unlock()
		return // sent, torn down, or left to connectClient
	}
	allDone := true
	for _, m := range g.members {
		if !m.atEOF() {
			allDone = false
			break
		}
	}
	var vcr *wire.Peer
	var pos time.Duration
	if allDone {
		g.eofSent = true
		vcr = g.vcr
		pos = g.members[0].position()
	}
	g.mu.Unlock()
	if vcr != nil {
		vcr.Notify(wire.TypeStreamEOF, wire.StreamEOF{Group: g.id, Pos: pos}) //nolint:errcheck
	}
}

// clearEOF re-arms EOF notification after a seek or speed change.
func (g *group) clearEOF() {
	g.mu.Lock()
	g.eofSent = false
	g.mu.Unlock()
}

// quit terminates the whole group: recordings commit, streams stop,
// the Coordinator hears stream-ended for every member (§2.2: "After a
// 'quit' command from the client, the MSU informs the coordinator that
// the stream has been terminated").
func (g *group) quit(cause string) {
	g.mu.Lock()
	if g.quitted {
		g.mu.Unlock()
		return
	}
	g.quitted = true
	members := append([]*stream(nil), g.members...)
	vcr := g.vcr
	g.mu.Unlock()

	g.vcrMu.Lock() // a command already under way is applied first
	for _, s := range members {
		s.teardown()
	}
	// Forgotten before the Coordinator hears they ended, so what it then
	// allows — deleting their content — does not find them still here. A
	// disk this leaves idle reports now, counting every packet sent.
	for _, disk := range g.m.dropGroup(g) {
		g.m.reportCache(disk)
	}
	for _, s := range members {
		g.m.notifyCoordinator(wire.TypeStreamEnded, wire.StreamEnded{Stream: s.spec.Stream, Cause: cause})
	}
	g.vcrMu.Unlock()
	if vcr != nil {
		vcr.Close() //nolint:errcheck // teardown: the client is gone or leaving; nothing to report to
	}
	g.m.logf("group %d terminated: %s", g.id, cause)
}
