package msu

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/core"
	"calliope/internal/faultinject"
	"calliope/internal/msufs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// fakeCoordinator accepts MSU registrations and records notifications,
// letting tests drive the MSU's RPC surface directly.
type fakeCoordinator struct {
	ln net.Listener

	mu       sync.Mutex
	msuPeer  *wire.Peer
	regs     int
	ended    []wire.StreamEnded
	recorded []wire.RecordingDone
	reports  []wire.CacheReport
	// order lists the cache reports and stream-ended notifications in
	// the order they arrived: "report" or "ended".
	order []string
	wg    sync.WaitGroup
}

func startFakeCoordinator(t *testing.T, addr string) *fakeCoordinator {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeCoordinator{ln: ln}
	fc.wg.Add(1)
	go fc.accept()
	t.Cleanup(func() { fc.Close() })
	return fc
}

func (fc *fakeCoordinator) accept() {
	defer fc.wg.Done()
	for {
		conn, err := fc.ln.Accept()
		if err != nil {
			return
		}
		var peer *wire.Peer
		peer = wire.NewPeerStopped(conn, func(msgType string, body json.RawMessage) (any, error) {
			switch msgType {
			case wire.TypeMSUHello:
				fc.mu.Lock()
				fc.msuPeer = peer
				fc.regs++
				fc.mu.Unlock()
				return &wire.MSUWelcome{}, nil
			case wire.TypeStreamEnded:
				var se wire.StreamEnded
				json.Unmarshal(body, &se) //nolint:errcheck
				fc.mu.Lock()
				fc.ended = append(fc.ended, se)
				fc.order = append(fc.order, "ended")
				fc.mu.Unlock()
				return nil, nil
			case wire.TypeCacheReport:
				var cr wire.CacheReport
				json.Unmarshal(body, &cr) //nolint:errcheck
				fc.mu.Lock()
				fc.reports = append(fc.reports, cr)
				fc.order = append(fc.order, "report")
				fc.mu.Unlock()
				return nil, nil
			case wire.TypeRecordingDone:
				var rd wire.RecordingDone
				json.Unmarshal(body, &rd) //nolint:errcheck
				fc.mu.Lock()
				fc.recorded = append(fc.recorded, rd)
				fc.mu.Unlock()
				return nil, nil
			}
			return nil, nil
		}, nil)
		peer.Start()
	}
}

func (fc *fakeCoordinator) Addr() string { return fc.ln.Addr().String() }

func (fc *fakeCoordinator) peer(t *testing.T) *wire.Peer {
	t.Helper()
	var p *wire.Peer
	await.Until(t, "the MSU to register", func() bool {
		fc.mu.Lock()
		defer fc.mu.Unlock()
		p = fc.msuPeer
		return p != nil
	})
	return p
}

func (fc *fakeCoordinator) registrations() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.regs
}

func (fc *fakeCoordinator) endedCount() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.ended)
}

func (fc *fakeCoordinator) Close() {
	fc.ln.Close()
	fc.mu.Lock()
	p := fc.msuPeer
	fc.msuPeer = nil
	fc.mu.Unlock()
	if p != nil {
		p.Close()
	}
	fc.wg.Wait()
}

// vcrEndpoint is a minimal client control listener: it accepts the
// MSU's connection and exposes its peer.
type vcrEndpoint struct {
	ln   net.Listener
	peer chan *wire.Peer
}

func startVCREndpoint(t *testing.T) *vcrEndpoint {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	v := &vcrEndpoint{ln: ln, peer: make(chan *wire.Peer, 1)}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		v.peer <- wire.NewPeer(conn, func(string, json.RawMessage) (any, error) { return nil, nil }, nil)
	}()
	t.Cleanup(func() { ln.Close() })
	return v
}

func TestStopStreamFromCoordinator(t *testing.T) {
	vol := rawVolume(t)
	src := testStream(t, 10*time.Second)
	if err := Ingest(msufs.NewStore(vol), "movie", "mpeg1", src); err != nil {
		t.Fatal(err)
	}
	fc := startFakeCoordinator(t, "")
	m, err := New(Config{ID: "m0", Coordinator: fc.Addr(), Volumes: []*msufs.Volume{vol}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peer := fc.peer(t)

	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	vcr := startVCREndpoint(t)

	spec := core.StreamSpec{
		Stream: 7, Group: 1,
		Content: "movie", Type: "mpeg1", Protocol: "cbr", Class: core.ConstantRate,
		Rate: 1500 * units.Kbps, Disk: 0,
		DestAddr:  sink.LocalAddr().String(),
		ClientTCP: vcr.ln.Addr().String(),
	}
	if err := peer.Call(wire.TypeStartStream, wire.StartStream{Specs: []core.StreamSpec{spec}}, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-vcr.peer:
	case <-time.After(3 * time.Second):
		t.Fatal("MSU never dialled the VCR endpoint")
	}
	// Delivery flows.
	buf := make([]byte, 2048)
	sink.SetReadDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
	if _, _, err := sink.ReadFromUDP(buf); err != nil {
		t.Fatalf("no data: %v", err)
	}

	// Coordinator-initiated stop (the rollback path): stream ends and
	// the MSU reports it.
	if err := peer.Notify(wire.TypeStopStream, wire.StopStream{Stream: 7}); err != nil {
		t.Fatal(err)
	}
	await.Until(t, "stream-ended after stop-stream", func() bool { return fc.endedCount() > 0 })
	// A second stop for an unknown stream is a harmless no-op.
	if err := peer.Notify(wire.TypeStopStream, wire.StopStream{Stream: 99}); err != nil {
		t.Fatal(err)
	}
}

func TestStartStreamRejections(t *testing.T) {
	vol := rawVolume(t)
	if err := Ingest(msufs.NewStore(vol), "movie", "mpeg1", testStream(t, time.Second)); err != nil {
		t.Fatal(err)
	}
	fc := startFakeCoordinator(t, "")
	m, err := New(Config{ID: "m0", Coordinator: fc.Addr(), Volumes: []*msufs.Volume{vol}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peer := fc.peer(t)

	base := core.StreamSpec{
		Stream: 1, Group: 1,
		Content: "movie", Type: "mpeg1", Protocol: "cbr",
		Rate: 1500 * units.Kbps, DestAddr: "127.0.0.1:9", ClientTCP: "127.0.0.1:9",
	}
	cases := []func(*core.StreamSpec){
		func(s *core.StreamSpec) { s.Disk = 5 },          // no such disk
		func(s *core.StreamSpec) { s.Content = "ghost" }, // no such content
		func(s *core.StreamSpec) { s.Protocol = "nope" }, // unknown protocol is caught at record; play ignores
		func(s *core.StreamSpec) { s.DestAddr = "not-an-addr" },
	}
	for i, mut := range cases {
		spec := base
		spec.Stream = core.StreamID(100 + i)
		mut(&spec)
		err := peer.Call(wire.TypeStartStream, wire.StartStream{Specs: []core.StreamSpec{spec}}, nil)
		if i == 2 {
			continue // play path does not instantiate the protocol module
		}
		if err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Unknown message type.
	if err := peer.Call("bogus", struct{}{}, nil); err == nil {
		t.Error("unknown RPC accepted")
	}
}

func TestMSUReconnectsAfterCoordinatorRestart(t *testing.T) {
	vol := rawVolume(t)
	fc := startFakeCoordinator(t, "")
	addr := fc.Addr()
	m, err := New(Config{
		ID: "m0", Coordinator: addr,
		Volumes:           []*msufs.Volume{vol},
		ReconnectInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if fc.registrations() != 1 {
		t.Fatalf("registrations = %d", fc.registrations())
	}

	// Coordinator dies; a replacement comes up on the same address.
	fc.Close()
	await.Until(t, "the MSU to drop the dead Coordinator and start retrying", m.disconnected)
	fc2 := startFakeCoordinator(t, addr)
	await.Until(t, "the MSU to re-register", func() bool { return fc2.registrations() > 0 })
}

// disconnected reports whether the MSU has dropped its Coordinator
// connection: its reconnect loop is under way.
func (m *MSU) disconnected() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peer == nil
}

func TestMSUReconnectBackoffStopsOnClose(t *testing.T) {
	vol := rawVolume(t)
	fc := startFakeCoordinator(t, "")
	in := faultinject.New(faultinject.Options{})
	m, err := New(Config{
		ID: "m0", Coordinator: fc.Addr(),
		Volumes:           []*msufs.Volume{vol},
		ReconnectInterval: 10 * time.Millisecond,
		Dial:              in.Dial(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the link and keep every redial failing; Close must still
	// return promptly, interrupting the backoff sleep.
	in.Partition(true)
	in.CutAll()
	await.Until(t, "the reconnect loop to start", m.disconnected)
	done := make(chan error, 1)
	go func() { done <- m.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the reconnect backoff")
	}
}

func TestGroupClientDialRetries(t *testing.T) {
	vol := rawVolume(t)
	src := testStream(t, 5*time.Second)
	if err := Ingest(msufs.NewStore(vol), "movie", "mpeg1", src); err != nil {
		t.Fatal(err)
	}
	fc := startFakeCoordinator(t, "")
	in := faultinject.New(faultinject.Options{})
	m, err := New(Config{
		ID: "m0", Coordinator: fc.Addr(),
		Volumes: []*msufs.Volume{vol},
		Dial:    in.Dial(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peer := fc.peer(t)

	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	vcr := startVCREndpoint(t)

	// The first two dials to the client's control port fail; the group
	// must retry instead of abandoning the reserved stream.
	in.FailDials(2)
	spec := core.StreamSpec{
		Stream: 7, Group: 1,
		Content: "movie", Type: "mpeg1", Protocol: "cbr", Class: core.ConstantRate,
		Rate: 1500 * units.Kbps, Disk: 0,
		DestAddr:  sink.LocalAddr().String(),
		ClientTCP: vcr.ln.Addr().String(),
	}
	if err := peer.Call(wire.TypeStartStream, wire.StartStream{Specs: []core.StreamSpec{spec}}, nil); err != nil {
		t.Fatalf("start-stream failed despite dial retries: %v", err)
	}
	select {
	case <-vcr.peer:
	case <-time.After(3 * time.Second):
		t.Fatal("MSU never reached the VCR endpoint")
	}
}

func TestGroupClientDialGivesUp(t *testing.T) {
	vol := rawVolume(t)
	if err := Ingest(msufs.NewStore(vol), "movie", "mpeg1", testStream(t, time.Second)); err != nil {
		t.Fatal(err)
	}
	fc := startFakeCoordinator(t, "")
	in := faultinject.New(faultinject.Options{})
	m, err := New(Config{
		ID: "m0", Coordinator: fc.Addr(),
		Volumes: []*msufs.Volume{vol},
		Dial:    in.Dial(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	peer := fc.peer(t)

	in.FailDials(100) // exceeds the retry budget
	spec := core.StreamSpec{
		Stream: 8, Group: 2,
		Content: "movie", Type: "mpeg1", Protocol: "cbr", Class: core.ConstantRate,
		Rate: 1500 * units.Kbps, Disk: 0,
		DestAddr:  "127.0.0.1:9",
		ClientTCP: "127.0.0.1:9",
	}
	err = peer.Call(wire.TypeStartStream, wire.StartStream{Specs: []core.StreamSpec{spec}}, nil)
	if err == nil {
		t.Fatal("start-stream succeeded with an unreachable client")
	}
	// The failed group must not linger.
	await.Until(t, "the failed group to go", func() bool {
		_, n := m.live()
		return n == 0
	})
}
