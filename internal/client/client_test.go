package client

import (
	"net"
	"testing"
	"time"

	"calliope/internal/coordinator"
	"calliope/internal/core"
	"calliope/internal/faultinject"
	"calliope/internal/units"
	"calliope/internal/wire"
)

func startCoordinator(t *testing.T) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{Types: []core.ContentType{
		{Name: "mpeg1", Class: core.ConstantRate, Bandwidth: 1500 * units.Kbps, Storage: 1500 * units.Kbps, Protocol: "cbr"},
		{Name: "vat-audio", Class: core.VariableRate, Bandwidth: 128 * units.Kbps, Storage: 80 * units.Kbps, Protocol: "vat"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDialAndSession(t *testing.T) {
	coord := startCoordinator(t)
	c, err := Dial(coord.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Session() == 0 {
		t.Error("no session id")
	}
	if c.ControlAddr() == "" {
		t.Error("no control address")
	}
	types, err := c.ListTypes()
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 {
		t.Fatalf("types = %+v", types)
	}
	items, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("content = %+v", items)
	}
	st, err := c.StatusV2()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Snapshot.Gauge(wire.GaugeSessions); n != 1 {
		t.Fatalf("sessions = %d", n)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "x"); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}

func TestPortLifecycle(t *testing.T) {
	coord := startCoordinator(t)
	c, err := Dial(coord.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterPort("tv", "mpeg1", "127.0.0.1:9000", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPort("tv", "mpeg1", "127.0.0.1:9000", ""); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := c.UnregisterPort("tv"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPort("tv", "mpeg1", "127.0.0.1:9000", ""); err != nil {
		t.Fatalf("re-register after unregister: %v", err)
	}
}

func TestPlayFailsWithoutContent(t *testing.T) {
	coord := startCoordinator(t)
	c, err := Dial(coord.Addr(), "carl")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterPort("tv", "mpeg1", "127.0.0.1:9000", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Play("ghost", "tv", false); err == nil {
		t.Fatal("play of unknown content succeeded")
	}
}

func TestSessionDropDeallocatesPorts(t *testing.T) {
	coord := startCoordinator(t)
	c, err := Dial(coord.Addr(), "dora")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPort("tv", "mpeg1", "127.0.0.1:9000", ""); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := Dial(coord.Addr(), "dora2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := c2.StatusV2()
		if err != nil {
			t.Fatal(err)
		}
		if st.Snapshot.Gauge(wire.GaugeSessions) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dropped session lingers: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReceiverCountsAndCaptures(t *testing.T) {
	r, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetCapture(true)

	conn, err := net.Dial("udp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payloads := []string{"one", "two", "three"}
	for _, p := range payloads {
		if _, err := conn.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if !r.WaitCount(3, 2*time.Second) {
		t.Fatalf("got %d packets", r.Count())
	}
	if r.Bytes() != 11 {
		t.Errorf("Bytes = %d", r.Bytes())
	}
	pkts := r.Packets()
	for i, want := range payloads {
		if string(pkts[i].Payload) != want {
			t.Errorf("packet %d = %q", i, pkts[i].Payload)
		}
	}
	if r.Span() < 0 {
		t.Error("negative span")
	}
}

func TestReceiverNoCaptureByDefault(t *testing.T) {
	r, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn, _ := net.Dial("udp", r.Addr())
	defer conn.Close()
	conn.Write([]byte("data")) //nolint:errcheck
	if !r.WaitCount(1, 2*time.Second) {
		t.Fatal("packet lost")
	}
	if got := r.Packets(); got[0].Payload != nil {
		t.Error("payload captured without capture mode")
	}
	if got := r.Packets(); got[0].Size != 4 {
		t.Errorf("size = %d", got[0].Size)
	}
}

func TestWaitCountTimeout(t *testing.T) {
	r, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.WaitCount(1, 50*time.Millisecond) {
		t.Fatal("WaitCount succeeded with no traffic")
	}
	r.Close() // double close is safe
}

func TestClientReconnectsAfterCoordinatorCut(t *testing.T) {
	coord := startCoordinator(t)
	in := faultinject.New(faultinject.Options{})
	c, err := DialOptions(coord.Addr(), "alice", Options{
		Dial:          in.Dial(nil),
		ReconnectBase: 10 * time.Millisecond,
		ReconnectCap:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterPort("tv", "mpeg1", "127.0.0.1:1", ""); err != nil {
		t.Fatal(err)
	}
	first := c.Session()

	// Sever the session; a couple of redials fail before one lands.
	in.FailDials(2)
	in.CutAll()
	if err := c.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Session() == first {
		t.Fatal("session id unchanged after reconnect")
	}
	// The remembered port was re-registered on the new session: a
	// duplicate registration is rejected, and a play through it works
	// once content exists.
	if err := c.RegisterPort("tv", "mpeg1", "127.0.0.1:1", ""); err == nil {
		t.Fatal("port not re-registered on new session")
	}
	st, err := c.StatusV2()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Snapshot.Gauge(wire.GaugeSessions); n != 1 {
		t.Fatalf("sessions = %d, want the dead one dropped", n)
	}
}

func TestClientReconnectStopsOnClose(t *testing.T) {
	coord := startCoordinator(t)
	in := faultinject.New(faultinject.Options{})
	c, err := DialOptions(coord.Addr(), "alice", Options{
		Dial:          in.Dial(nil),
		ReconnectBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Partition(true) // every redial fails
	in.CutAll()
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on the reconnect loop")
	}
}
