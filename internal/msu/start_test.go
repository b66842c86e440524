package msu

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/core"
	"calliope/internal/msufs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// startRig is an MSU built by New and registered with a fakeCoordinator,
// whose dials to the client's control port go through clientDial, and a
// UDP sink that counts every datagram the MSU delivers to it.
type startRig struct {
	t    *testing.T
	m    *MSU
	fc   *fakeCoordinator
	peer *wire.Peer
	sink *net.UDPConn
	// client is the address streams name as their control port; nothing
	// listens there unless clientDial makes it so.
	client string

	got   atomic.Int64  // datagrams received
	first chan struct{} // closed at the first
}

func newStartRig(t *testing.T, titles map[string]time.Duration, clientDial func(network, address string) (net.Conn, error)) *startRig {
	t.Helper()
	vol := rawVolume(t)
	for title, dur := range titles {
		if err := Ingest(msufs.NewStore(vol), title, "mpeg1", testStream(t, dur)); err != nil {
			t.Fatal(err)
		}
	}
	r := &startRig{t: t, client: "127.0.0.1:9", first: make(chan struct{})}
	r.fc = startFakeCoordinator(t, "")
	m, err := New(Config{
		ID: "m0", Coordinator: r.fc.Addr(), Volumes: []*msufs.Volume{vol},
		Dial: func(network, address string) (net.Conn, error) {
			if address == r.client {
				return clientDial(network, address)
			}
			return net.DialTimeout(network, address, 5*time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		m.Close() //nolint:errcheck
		t.Fatal(err)
	}
	r.m = m
	t.Cleanup(func() { m.Close() }) //nolint:errcheck // best-effort teardown
	r.peer = r.fc.peer(t)

	r.sink, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// The sink is read all along, so its socket buffer never drops what
	// the count is compared with.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		for {
			if _, _, err := r.sink.ReadFromUDP(buf); err != nil {
				return
			}
			if r.got.Add(1) == 1 {
				close(r.first)
			}
		}
	}()
	t.Cleanup(func() {
		r.sink.Close() //nolint:errcheck
		wg.Wait()
	})
	return r
}

// spec is a one-stream group playing title to the sink.
func (r *startRig) spec(id core.StreamID, title string) core.StreamSpec {
	return core.StreamSpec{
		Stream: id, Group: uint64(id), GroupSize: 1,
		Content: title, Type: "mpeg1", Protocol: "cbr", Class: core.ConstantRate,
		Rate: 1500 * units.Kbps, Disk: 0,
		DestAddr:  r.sink.LocalAddr().String(),
		ClientTCP: r.client,
	}
}

// start sends StartStream in the background; its reply arrives on the
// channel returned.
func (r *startRig) start(spec core.StreamSpec) <-chan error {
	replied := make(chan error, 1)
	go func() { replied <- r.peer.Call(wire.TypeStartStream, wire.StartStream{Spec: spec}, nil) }()
	return replied
}

func (r *startRig) awaitFirstPacket(when string) {
	r.t.Helper()
	select {
	case <-r.first:
	case <-time.After(5 * time.Second):
		r.t.Fatalf("%s: no datagram reached the client", when)
	}
}

// await polls cond until it holds.
func (r *startRig) await(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// settled waits for the sink's count to stop moving and returns it.
func (r *startRig) settled() int64 {
	r.t.Helper()
	n := r.got.Load()
	for {
		time.Sleep(50 * time.Millisecond)
		m := r.got.Load()
		if m == n {
			return n
		}
		n = m
	}
}

// messages returns what the fake Coordinator has heard so far: its cache
// reports, and the order they and the stream-ended notifications came in.
func (r *startRig) messages() ([]wire.CacheReport, []string) {
	r.fc.mu.Lock()
	defer r.fc.mu.Unlock()
	return append([]wire.CacheReport(nil), r.fc.reports...), append([]string(nil), r.fc.order...)
}

// finalReport is the last cache report the Coordinator heard before its
// last stream-ended, given what it heard (messages).
func finalReport(t *testing.T, reports []wire.CacheReport, order []string) wire.CacheReport {
	t.Helper()
	last, n := -1, 0
	for _, o := range order {
		switch o {
		case "report":
			n++
		case "ended":
			last = n - 1
		}
	}
	if last < 0 {
		t.Fatalf("no cache report before the last stream-ended: %v", order)
	}
	if reports[last].Obs == nil {
		t.Fatal("final cache report carries no metrics snapshot")
	}
	return reports[last]
}

// ended checks what the Coordinator hears once n streams in all have
// ended: reports numbered upwards in the order they arrive, and before
// the last stream-ended one that counts every datagram the client
// received; the MSU holds no stream, group or pinned page any more.
func (r *startRig) ended(n int) {
	r.t.Helper()
	r.await("stream-ended", func() bool { return r.fc.endedCount() == n })
	got := r.settled()
	reports, order := r.messages()
	for i := 1; i < len(reports); i++ {
		if reports[i].Seq <= reports[i-1].Seq {
			r.t.Errorf("report %d arrived after report %d", reports[i].Seq, reports[i-1].Seq)
		}
	}
	final := finalReport(r.t, reports, order)
	if sent := final.Obs.Counters["delivery_packets_total"]; sent != got {
		r.t.Errorf("final report counts %d packets sent, the client received %d", sent, got)
	}
	r.m.mu.Lock()
	streams, groups := len(r.m.streams), len(r.m.groups)
	r.m.mu.Unlock()
	if streams != 0 || groups != 0 {
		r.t.Errorf("%d streams and %d groups linger", streams, groups)
	}
	if n := r.m.obs.pinned.Load(); n != 0 {
		r.t.Errorf("readahead_pinned_pages = %d, want 0", n)
	}
	if c := r.m.cacheFor(0); c != nil && c.Pinned() != 0 {
		r.t.Errorf("%d cache pages still pinned", c.Pinned())
	}
	time.Sleep(100 * time.Millisecond)
	if n := r.got.Load(); n != got {
		r.t.Errorf("%d datagrams arrived after the stream ended", n-got)
	}
}

// TestFirstPacketBeforeControlDial pins the start order: a complete
// group's members begin delivering before the MSU dials the client's
// control port, so the first packet does not wait for the dial. The
// StartStream reply still does.
func TestFirstPacketBeforeControlDial(t *testing.T) {
	gate := make(chan struct{})
	var dialed atomic.Bool
	var released sync.Once
	release := func() { released.Do(func() { close(gate) }) }
	var vcr *vcrEndpoint
	r := newStartRig(t, map[string]time.Duration{"movie": 10 * time.Second}, func(network, _ string) (net.Conn, error) {
		<-gate
		dialed.Store(true)
		return net.Dial(network, vcr.ln.Addr().String())
	})
	t.Cleanup(release) // before the MSU closes, if a check below fails
	vcr = startVCREndpoint(t)

	replied := r.start(r.spec(1, "movie"))
	r.awaitFirstPacket("control dial held")
	if dialed.Load() {
		t.Fatal("the control dial completed before the first packet")
	}
	select {
	case err := <-replied:
		t.Fatalf("StartStream replied (%v) before the control dial completed", err)
	default:
	}

	release()
	if err := <-replied; err != nil {
		t.Fatalf("start-stream: %v", err)
	}
	var p *wire.Peer
	select {
	case p = <-vcr.peer:
	case <-time.After(5 * time.Second):
		t.Fatal("the MSU never reached the control port")
	}
	if err := p.Call(wire.TypeVCR, wire.VCR{Op: "quit"}, &wire.VCRAck{}); err != nil {
		t.Fatalf("quit: %v", err)
	}
	p.Close() //nolint:errcheck
	r.ended(1)
}

// TestControlDialFailureEndsGroup: a client whose control port refuses
// every dial fails the start, and the streams that began before the dial
// are stopped — the Coordinator hears the final report and stream-ended,
// and no packet follows.
func TestControlDialFailureEndsGroup(t *testing.T) {
	var dials atomic.Int32
	r := newStartRig(t, map[string]time.Duration{"movie": 10 * time.Second}, func(string, string) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("connection refused")
	})
	if err := <-r.start(r.spec(1, "movie")); err == nil {
		t.Fatal("start-stream succeeded with an unreachable client")
	}
	if n := dials.Load(); n != clientDialAttempts {
		t.Errorf("%d dials, want %d", n, clientDialAttempts)
	}
	// The members began before the first dial, and played through the
	// retries' backoff.
	r.awaitFirstPacket("dials failing")
	r.ended(1)
}

// TestReportCadence pins when a disk reports: on the report clock while
// a stream plays, at most one report a reportEvery, VCR commands sending
// none of their own, and at a stream's end, once the disk goes idle, a
// report that counts every packet sent; idle, the clock stops. A stream
// paused at its end still plays for the clock, so the Coordinator hears
// it finished.
func TestReportCadence(t *testing.T) {
	t.Run("vcr", func(t *testing.T) {
		var vcr *vcrEndpoint
		r := newStartRig(t, map[string]time.Duration{"movie": 10 * time.Second}, func(network, _ string) (net.Conn, error) {
			return net.Dial(network, vcr.ln.Addr().String())
		})
		vcr = startVCREndpoint(t)
		began := time.Now()
		if err := <-r.start(r.spec(1, "movie")); err != nil {
			t.Fatal(err)
		}
		p := <-vcr.peer
		defer p.Close() //nolint:errcheck
		r.awaitFirstPacket("play")
		cmd := func(op string, pos time.Duration) {
			t.Helper()
			before := r.got.Load()
			if err := p.Call(wire.TypeVCR, wire.VCR{Op: op, Pos: pos}, &wire.VCRAck{}); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if op != "pause" {
				r.await(op+"'s first packet", func() bool { return r.got.Load() > before })
			}
		}
		for i := range 20 {
			cmd("seek", time.Duration(i%7)*time.Second)
		}
		cmd("pause", 0)
		cmd("play", 0)
		r.await("two reports on the clock", func() bool {
			reports, _ := r.messages()
			return len(reports) >= 2
		})
		reports, _ := r.messages()
		if most := int(time.Since(began) / reportEvery); len(reports) > most {
			t.Fatalf("%d cache reports in %v of play, want at most one a %v", len(reports), time.Since(began), reportEvery)
		}
		if err := p.Call(wire.TypeVCR, wire.VCR{Op: "quit"}, &wire.VCRAck{}); err != nil {
			t.Fatalf("quit: %v", err)
		}
		r.ended(1)
		idle, _ := r.messages()
		time.Sleep(3 * reportEvery)
		if later, _ := r.messages(); len(later) != len(idle) {
			t.Errorf("%d cache reports from an idle MSU", len(later)-len(idle))
		}
	})
	t.Run("eof", func(t *testing.T) {
		var vcr *vcrEndpoint
		r := newStartRig(t, map[string]time.Duration{"short": 300 * time.Millisecond}, func(network, _ string) (net.Conn, error) {
			return net.Dial(network, vcr.ln.Addr().String())
		})
		vcr = startVCREndpoint(t)
		if err := <-r.start(r.spec(1, "short")); err != nil {
			t.Fatal(err)
		}
		p := <-vcr.peer
		defer p.Close() //nolint:errcheck
		r.m.mu.Lock()
		s := r.m.streams[1]
		r.m.mu.Unlock()
		r.await("the end of the title", s.atEOF)
		all := r.settled()
		r.await("a report of the whole title", func() bool {
			reports, _ := r.messages()
			return len(reports) > 0 && reports[len(reports)-1].Obs.Counters["delivery_packets_total"] == all
		})
		if err := p.Call(wire.TypeVCR, wire.VCR{Op: "quit"}, &wire.VCRAck{}); err != nil {
			t.Fatalf("quit: %v", err)
		}
		r.ended(1)
	})
}

// TestLastReportCountsConcurrentQuits: two groups on one disk quit at
// once. The later of them to go sees the disk idle and reports after both
// teardowns, so the last report before the second stream-ended counts
// both streams' packets.
func TestLastReportCountsConcurrentQuits(t *testing.T) {
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait) // after the MSU's Close: every control connection is closed by then
	r := newStartRig(t, map[string]time.Duration{"movie": 10 * time.Second}, func(string, string) (net.Conn, error) {
		mine, theirs := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(io.Discard, theirs) //nolint:errcheck // ends when the MSU closes its end
		}()
		return mine, nil
	})
	for i := range 50 {
		ids := []core.StreamID{core.StreamID(2*i + 1), core.StreamID(2*i + 2)}
		for _, id := range ids {
			if err := <-r.start(r.spec(id, "movie")); err != nil {
				t.Fatal(err)
			}
		}
		before := r.got.Load()
		r.await("both streams delivering", func() bool { return r.got.Load() > before+4 })
		var quits sync.WaitGroup
		for _, id := range ids {
			quits.Add(1)
			go func() {
				defer quits.Done()
				r.peer.Call(wire.TypeStopStream, wire.StopStream{Stream: id}, nil) //nolint:errcheck // stream-ended is what is checked
			}()
		}
		quits.Wait()
		r.await("both stream-ended", func() bool { return r.fc.endedCount() == 2*(i+1) })
		got := r.settled()
		reports, order := r.messages()
		if sent := finalReport(t, reports, order).Obs.Counters["delivery_packets_total"]; sent != got {
			t.Fatalf("iteration %d: the report before the second stream-ended counts %d packets sent, the client received %d", i, sent, got)
		}
	}
}

// TestQuitDuringControlDial: a group quit while its control dial is in
// flight (here a Coordinator stop) gets no peer when the dial succeeds
// afterwards. The connection is closed, nothing plays, and the start
// fails.
func TestQuitDuringControlDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	dialing := make(chan struct{})
	release := make(chan struct{})
	r := newStartRig(t, map[string]time.Duration{"movie": 10 * time.Second}, func(network, _ string) (net.Conn, error) {
		close(dialing)
		<-release
		return net.Dial(network, ln.Addr().String())
	})

	replied := r.start(r.spec(1, "movie"))
	select {
	case <-dialing:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("the MSU never dialled the client")
	}
	r.m.mu.Lock()
	s := r.m.streams[1]
	r.m.mu.Unlock()
	if err := r.peer.Notify(wire.TypeStopStream, wire.StopStream{Stream: 1}); err != nil {
		close(release)
		t.Fatal(err)
	}
	r.await("stream-ended", func() bool { return r.fc.endedCount() == 1 })
	close(release)
	if err := <-replied; err == nil {
		t.Fatal("start-stream succeeded for a group quit during its dial")
	}

	conn := <-accepted
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Errorf("the control connection was left open: %v", err)
	}
	ended := false
	select {
	case <-s.done:
		ended = true
	default:
	}
	s.group.mu.Lock()
	attached := s.group.vcr != nil
	s.group.mu.Unlock()
	if !ended || attached {
		t.Errorf("after the quit: disk process ended %v, peer attached %v", ended, attached)
	}
	r.ended(1)
}
