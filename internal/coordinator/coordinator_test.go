package coordinator

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/core"
	"calliope/internal/units"
	"calliope/internal/wire"
)

func paperTypes() []core.ContentType {
	return []core.ContentType{
		{Name: "mpeg1", Class: core.ConstantRate, Bandwidth: 1500 * units.Kbps, Storage: 1500 * units.Kbps, Protocol: "cbr"},
		{Name: "rtp-video", Class: core.VariableRate, Bandwidth: 3000 * units.Kbps, Storage: 900 * units.Kbps, Protocol: "rtp"},
		{Name: "vat-audio", Class: core.VariableRate, Bandwidth: 128 * units.Kbps, Storage: 80 * units.Kbps, Protocol: "vat"},
		{Name: "seminar", Components: []string{"rtp-video", "vat-audio"}},
	}
}

// queueHolds reports whether n requests are parked on c's pending queue.
func queueHolds(c *Coordinator, n int64) func() bool {
	return func() bool { return c.ObsSnapshot().Gauge(wire.GaugeQueuedPlays) == n }
}

func startCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Types == nil {
		cfg.Types = paperTypes()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialPeer connects a raw wire peer to the coordinator.
func dialPeer(t *testing.T, c *Coordinator, handler wire.Handler) *wire.Peer {
	t.Helper()
	conn, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := wire.NewPeer(conn, handler, nil)
	t.Cleanup(func() { p.Close() })
	return p
}

// startOK is an MSU's reply to StartStream body that starts every
// member: one StartStreamOK per spec, with a recording's address.
func startOK(body json.RawMessage) []wire.StartStreamOK {
	var req wire.StartStream
	json.Unmarshal(body, &req) //nolint:errcheck // a malformed body starts nothing
	out := make([]wire.StartStreamOK, len(req.Specs))
	for i := range out {
		out[i].DataAddr = "127.0.0.1:9"
	}
	return out
}

// fakeMSUPeer registers a minimal MSU that acknowledges StartStream.
func fakeMSUPeer(t *testing.T, c *Coordinator, id core.MSUID, contents []wire.ContentDecl, bw units.BitRate) *wire.Peer {
	t.Helper()
	p := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == wire.TypeStartStream {
			return startOK(body), nil
		}
		return nil, nil
	})
	hello := wire.MSUHello{ID: id, ProtoVersion: wire.ProtoVersion, Disks: []wire.DiskInfo{{
		BlockSize:   64 * 1024,
		TotalBlocks: 1000,
		FreeBlocks:  900,
		Bandwidth:   bw,
		Contents:    contents,
	}}}
	if err := p.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// clientPeer opens a session.
func clientPeer(t *testing.T, c *Coordinator) *wire.Peer {
	t.Helper()
	p := dialPeer(t, c, nil)
	var w wire.Welcome
	if err := p.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}, &w); err != nil {
		t.Fatal(err)
	}
	return p
}

// status fetches the Coordinator's status report.
func status(t *testing.T, p *wire.Peer) wire.StatusV2 {
	t.Helper()
	var st wire.StatusV2
	if err := p.Call(wire.TypeStatusV2, struct{}{}, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSessionRequired(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := dialPeer(t, c, nil)
	err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "x", Type: "mpeg1", Addr: "a:1"}, nil)
	if err == nil || !strings.Contains(err.Error(), "hello first") {
		t.Fatalf("port before hello: %v", err)
	}
}

func TestUnknownMessage(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := clientPeer(t, c)
	if err := p.Call("bogus", struct{}{}, nil); err == nil {
		t.Fatal("unknown message accepted")
	}
}

func TestListTypesSeeded(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := clientPeer(t, c)
	var resp wire.TypeList
	if err := p.Call(wire.TypeListTypes, struct{}{}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Types) != 4 {
		t.Fatalf("types = %+v", resp.Types)
	}
	// Sorted by name.
	for i := 1; i < len(resp.Types); i++ {
		if resp.Types[i].Name < resp.Types[i-1].Name {
			t.Fatal("types not sorted")
		}
	}
}

func TestAddTypeValidation(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := clientPeer(t, c)
	// Duplicate.
	err := p.Call(wire.TypeAddType, wire.AddType{Type: paperTypes()[0]}, nil)
	if err == nil {
		t.Fatal("duplicate type accepted")
	}
	// Composite referencing unknown component.
	bad := core.ContentType{Name: "combo", Components: []string{"nope"}}
	if err := p.Call(wire.TypeAddType, wire.AddType{Type: bad}, nil); err == nil {
		t.Fatal("bad composite accepted")
	}
	// Valid new type.
	good := core.ContentType{Name: "jpeg", Class: core.ConstantRate, Bandwidth: units.Mbps, Storage: units.Mbps, Protocol: "cbr"}
	if err := p.Call(wire.TypeAddType, wire.AddType{Type: good}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterPortValidation(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := clientPeer(t, c)
	call := func(req wire.RegisterPort) error {
		return p.Call(wire.TypeRegisterPort, req, nil)
	}
	if err := call(wire.RegisterPort{Name: "p", Type: "nope", Addr: "a:1"}); err == nil {
		t.Error("unknown type accepted")
	}
	if err := call(wire.RegisterPort{Name: "p", Type: "mpeg1"}); err == nil {
		t.Error("atomic port without address accepted")
	}
	if err := call(wire.RegisterPort{Name: "p", Type: "mpeg1", Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if err := call(wire.RegisterPort{Name: "p", Type: "mpeg1", Addr: "a:1"}); err == nil {
		t.Error("duplicate port accepted")
	}
	// Composite missing a component.
	if err := call(wire.RegisterPort{Name: "s", Type: "seminar", Components: map[string]string{}}); err == nil {
		t.Error("composite without components accepted")
	}
	// Composite whose component port has the wrong type.
	if err := call(wire.RegisterPort{Name: "s", Type: "seminar", Components: map[string]string{
		"rtp-video": "p", "vat-audio": "p",
	}}); err == nil {
		t.Error("component type mismatch accepted")
	}
	// Proper composite.
	if err := call(wire.RegisterPort{Name: "v", Type: "rtp-video", Addr: "a:2"}); err != nil {
		t.Fatal(err)
	}
	if err := call(wire.RegisterPort{Name: "a", Type: "vat-audio", Addr: "a:3"}); err != nil {
		t.Fatal(err)
	}
	if err := call(wire.RegisterPort{Name: "s", Type: "seminar", Components: map[string]string{
		"rtp-video": "v", "vat-audio": "a",
	}}); err != nil {
		t.Fatal(err)
	}
	// Unregister.
	if err := p.Call(wire.TypeUnregisterPort, wire.UnregisterPort{Name: "p"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Call(wire.TypeUnregisterPort, wire.UnregisterPort{Name: "p"}, nil); err == nil {
		t.Error("double unregister accepted")
	}
}

func TestMSUHelloValidation(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := dialPeer(t, c, nil)
	if err := p.Call(wire.TypeMSUHello, wire.MSUHello{}, nil); err == nil {
		t.Error("MSU without id accepted")
	}
	bad := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m", Disks: []wire.DiskInfo{{BlockSize: 0, TotalBlocks: 10}}}
	if err := p.Call(wire.TypeMSUHello, bad, nil); err == nil {
		t.Error("bad disk geometry accepted")
	}
	worse := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m", Disks: []wire.DiskInfo{{BlockSize: 64, TotalBlocks: 10, FreeBlocks: 20}}}
	if err := p.Call(wire.TypeMSUHello, worse, nil); err == nil {
		t.Error("free > total accepted")
	}
}

func TestDuplicateLiveMSURejected(t *testing.T) {
	c := startCoordinator(t, Config{})
	fakeMSUPeer(t, c, "m1", nil, 0)
	p2 := dialPeer(t, c, nil)
	err := p2.Call(wire.TypeMSUHello, wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m1", Disks: []wire.DiskInfo{{BlockSize: 64, TotalBlocks: 10}}}, nil)
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate live MSU: %v", err)
	}
}

func TestPlaySchedulingAndBandwidth(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	fakeMSUPeer(t, c, "m1", decl, 3000*units.Kbps) // room for two streams
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
		t.Fatal(err)
	}
	play := func() error {
		var resp wire.PlayOK
		return p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &resp)
	}
	if err := play(); err != nil {
		t.Fatalf("first play: %v", err)
	}
	if err := play(); err != nil {
		t.Fatalf("second play: %v", err)
	}
	if err := play(); err == nil {
		t.Fatal("third play exceeded disk bandwidth but was admitted")
	}
	st := status(t, p)
	if st.Snapshot.Gauge(wire.GaugeActiveStreams) != 2 || st.Snapshot.Gauge(wire.GaugeMSUsAvailable) != 1 || st.Snapshot.Gauge(wire.GaugeContents) != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestPlayValidation(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute}}
	fakeMSUPeer(t, c, "m1", decl, 0)
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil)        //nolint:errcheck
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "audio", Type: "vat-audio", Addr: "a:2"}, nil) //nolint:errcheck
	cases := []wire.Play{
		{Content: "ghost", Port: "tv", ControlAddr: "a:9"},  // unknown content
		{Content: "movie", Port: "ghost", ControlAddr: "a"}, // unknown port
		{Content: "movie", Port: "audio", ControlAddr: "a"}, // type mismatch
		{Content: "movie", Port: "tv"},                      // no control address
	}
	for i, req := range cases {
		if err := p.Call(wire.TypePlay, req, nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestQueueTimeout(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 150 * time.Millisecond})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps) // exactly one stream
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9", Wait: true}, nil)
	if err == nil {
		t.Fatal("queued play succeeded with no capacity")
	}
	if !errors.Is(err, wire.ErrRemote) || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("queue timeout error: %v", err)
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("did not queue: returned after %v", waited)
	}
}

func TestQueuedPlayProceedsOnRelease(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 5 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var first wire.PlayOK
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &first); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9", Wait: true}, nil)
	}()
	await.Until(t, "the play to queue", queueHolds(c, 1))
	// Free the slot by ending the first stream (as the MSU would).
	c.step(func(time.Time) { endStream(c, first.Streams[0].Stream, "test") })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued play failed: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("queued play never proceeded")
	}
}

func TestMSUDownReleasesStreams(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	mp := fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	migrated := make(chan wire.StreamMigrated, 1)
	p := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == wire.TypeStreamMigrated {
			var m wire.StreamMigrated
			json.Unmarshal(body, &m) //nolint:errcheck
			select {
			case migrated <- m:
			default:
			}
		}
		return nil, nil
	})
	if err := p.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}, &wire.Welcome{}); err != nil {
		t.Fatal(err)
	}
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatal(err)
	}
	mp.Close()
	await.Until(t, "the MSU's death to be cleaned up", func() bool {
		st := status(t, p)
		return st.Snapshot.Gauge(wire.GaugeMSUsAvailable) == 0 && st.Snapshot.Gauge(wire.GaugeActiveStreams) == 0
	})
	// Plays now fail as unavailable.
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err == nil {
		t.Fatal("play against dead MSU accepted")
	}
	// Re-registration restores service: the orphaned stream migrates
	// onto the returned MSU (the client hears stream-migrated) and a new
	// play fits alongside it.
	fakeMSUPeer(t, c, "m1", decl, 3000*units.Kbps)
	select {
	case m := <-migrated:
		if m.MSU != "m1" || len(m.Streams) != 1 {
			t.Fatalf("migration notice: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no stream-migrated notification after MSU returned")
	}
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatalf("play after recovery: %v", err)
	}
}

func TestDeleteContentValidation(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeDeleteContent, wire.DeleteContent{Content: "ghost"}, nil); err == nil {
		t.Fatal("delete of unknown content accepted")
	}
	// In-use content cannot be deleted.
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	fakeMSUPeer(t, c, "m1", decl, 0)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatal(err)
	}
	err := p.Call(wire.TypeDeleteContent, wire.DeleteContent{Content: "movie"}, nil)
	if err == nil || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("delete of in-use content: %v", err)
	}
}

func TestBlocksForEstimate(t *testing.T) {
	mpeg := paperTypes()[0]
	// 60 s at 1.5 Mbit/s = 11.25 MB → 172 blocks of 64 KB (ceil).
	got := blocksForEstimate(mpeg, time.Minute, 64*1024)
	if got != 172 {
		t.Fatalf("blocks = %d, want 172", got)
	}
	// Tiny estimates still reserve one block.
	if got := blocksForEstimate(mpeg, time.Millisecond, 64*1024); got != 1 {
		t.Fatalf("minimum = %d", got)
	}
}

func TestRecordSchedulingSpace(t *testing.T) {
	c := startCoordinator(t, Config{})
	// 100 free blocks of 64 KB = 6.4 MB; a 60 s MPEG recording needs
	// 172 blocks → no space; 20 s needs 58 → fits.
	p0 := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		return startOK(body), nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m1", Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 100, FreeBlocks: 100, Bandwidth: 100 * units.Mbps,
	}}}
	if err := p0.Call(wire.TypeMSUHello, hello, nil); err != nil {
		t.Fatal(err)
	}
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "cam", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	err := p.Call(wire.TypeRecord, wire.Record{
		Content: "big", Type: "mpeg1", Port: "cam", Estimate: time.Minute, ControlAddr: "a:9",
	}, nil)
	if err == nil {
		t.Fatal("oversized recording accepted")
	}
	var ok wire.RecordOK
	err = p.Call(wire.TypeRecord, wire.Record{
		Content: "small", Type: "mpeg1", Port: "cam", Estimate: 20 * time.Second, ControlAddr: "a:9",
	}, &ok)
	if err != nil {
		t.Fatalf("20s recording rejected: %v", err)
	}
	if len(ok.Streams) != 1 || ok.Streams[0].DataAddr == "" {
		t.Fatalf("record response = %+v", ok)
	}
	// Duplicate content name rejected while first is in flight.
	err = p.Call(wire.TypeRecord, wire.Record{
		Content: "small", Type: "mpeg1", Port: "cam", Estimate: time.Second, ControlAddr: "a:9",
	}, nil)
	if err == nil {
		t.Fatal("duplicate recording name accepted")
	}
}

func TestRecordValidation(t *testing.T) {
	c := startCoordinator(t, Config{})
	fakeMSUPeer(t, c, "m1", nil, 0)
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "cam", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	cases := []wire.Record{
		{Content: "x", Type: "mpeg1", Port: "cam", ControlAddr: "a"},                            // no estimate
		{Type: "mpeg1", Port: "cam", Estimate: time.Second, ControlAddr: "a"},                   // no name
		{Content: "x", Type: "mpeg1", Port: "cam", Estimate: time.Second},                       // no control addr
		{Content: "x", Type: "nope", Port: "cam", Estimate: time.Second, ControlAddr: "a"},      // unknown type
		{Content: "x", Type: "mpeg1", Port: "ghost", Estimate: time.Second, ControlAddr: "a"},   // unknown port
		{Content: "x", Type: "vat-audio", Port: "cam", Estimate: time.Second, ControlAddr: "a"}, // port type mismatch
	}
	for i, req := range cases {
		if err := p.Call(wire.TypeRecord, req, nil); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAuthentication(t *testing.T) {
	c := startCoordinator(t, Config{Users: map[string]Role{
		"operator": RoleAdmin,
		"viewer":   RoleViewer,
	}})
	// Unknown users are rejected at hello.
	p := dialPeer(t, c, nil)
	if err := p.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "stranger"}, nil); err == nil {
		t.Fatal("unknown user admitted")
	}
	// Viewers can browse and register ports but not administrate.
	v := dialPeer(t, c, nil)
	if err := v.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "viewer"}, &wire.Welcome{}); err != nil {
		t.Fatal(err)
	}
	if err := v.Call(wire.TypeListContent, struct{}{}, &wire.ContentList{}); err != nil {
		t.Fatal(err)
	}
	if err := v.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
		t.Fatal(err)
	}
	newType := core.ContentType{Name: "x", Class: core.ConstantRate, Bandwidth: units.Mbps, Storage: units.Mbps, Protocol: "cbr"}
	if err := v.Call(wire.TypeAddType, wire.AddType{Type: newType}, nil); err == nil || !strings.Contains(err.Error(), "not an administrator") {
		t.Fatalf("viewer added a type: %v", err)
	}
	if err := v.Call(wire.TypeDeleteContent, wire.DeleteContent{Content: "anything"}, nil); err == nil || !strings.Contains(err.Error(), "not an administrator") {
		t.Fatalf("viewer delete: %v", err)
	}
	// Admins can.
	a := dialPeer(t, c, nil)
	if err := a.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "operator"}, &wire.Welcome{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Call(wire.TypeAddType, wire.AddType{Type: newType}, nil); err != nil {
		t.Fatalf("admin add type: %v", err)
	}
}

func TestOpenInstallationEveryoneIsAdmin(t *testing.T) {
	c := startCoordinator(t, Config{})
	p := clientPeer(t, c)
	newType := core.ContentType{Name: "x", Class: core.ConstantRate, Bandwidth: units.Mbps, Storage: units.Mbps, Protocol: "cbr"}
	if err := p.Call(wire.TypeAddType, wire.AddType{Type: newType}, nil); err != nil {
		t.Fatalf("open installation rejected admin op: %v", err)
	}
}

func TestStatusDiskUsage(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Size: 10 * units.MB}}
	fakeMSUPeer(t, c, "m1", decl, 3000*units.Kbps)
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatal(err)
	}
	st := status(t, p)
	if len(st.Disks) != 1 {
		t.Fatalf("disks = %+v", st.Disks)
	}
	d := st.Disks[0]
	if !d.Alive || d.Disk.MSU != "m1" {
		t.Fatalf("disk = %+v", d)
	}
	if d.BandwidthUsed != 1500*units.Kbps || d.BandwidthCap != 3000*units.Kbps {
		t.Fatalf("bandwidth = %v/%v", d.BandwidthUsed, d.BandwidthCap)
	}
	// The fake declared 100 of 1000 blocks in use (standing space).
	if d.SpaceUsed != 100*64*1024 || d.SpaceCap != 1000*64*1024 {
		t.Fatalf("space = %v/%v", d.SpaceUsed, d.SpaceCap)
	}
}

func TestRecordQueuesForSpace(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 5 * time.Second})
	// 60 free blocks: one 20s MPEG recording (58 blocks) fits, a
	// second must wait for the first to release its reservation.
	p0 := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		return startOK(body), nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m1", Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 60, FreeBlocks: 60, Bandwidth: 100 * units.Mbps,
	}}}
	if err := p0.Call(wire.TypeMSUHello, hello, nil); err != nil {
		t.Fatal(err)
	}
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "cam", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var first wire.RecordOK
	if err := p.Call(wire.TypeRecord, wire.Record{
		Content: "one", Type: "mpeg1", Port: "cam", Estimate: 20 * time.Second, ControlAddr: "a:9",
	}, &first); err != nil {
		t.Fatal(err)
	}
	// Immediate second recording: no space.
	err := p.Call(wire.TypeRecord, wire.Record{
		Content: "two", Type: "mpeg1", Port: "cam", Estimate: 20 * time.Second, ControlAddr: "a:9",
	}, nil)
	if err == nil {
		t.Fatal("second recording admitted without space")
	}
	// Queued second recording proceeds once the first stream ends
	// (aborted: its space reservation releases).
	done := make(chan error, 1)
	go func() {
		done <- p.Call(wire.TypeRecord, wire.Record{
			Content: "two", Type: "mpeg1", Port: "cam", Estimate: 20 * time.Second,
			ControlAddr: "a:9", Wait: true,
		}, nil)
	}()
	await.Until(t, "the recording to queue", queueHolds(c, 1))
	c.step(func(time.Time) { endStream(c, first.Streams[0].Stream, "abort") })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued recording failed: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("queued recording never proceeded")
	}
}

func TestCompositePlacementNeedsSingleMSU(t *testing.T) {
	// A seminar recording needs ONE MSU hosting both components'
	// bandwidth: with rtp on one MSU's budget and nothing else
	// available, an MSU that can take only the video must be skipped
	// in favour of one that fits both.
	c := startCoordinator(t, Config{})
	// m1: tiny bandwidth (fits vat only). m2: room for both.
	small := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m1", Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: 1000, Bandwidth: 200 * units.Kbps,
	}}}
	big := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m2", Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: 1000, Bandwidth: 10 * units.Mbps,
	}}}
	mk := func(h wire.MSUHello) {
		peer := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
			return startOK(body), nil
		})
		if err := peer.Call(wire.TypeMSUHello, h, nil); err != nil {
			t.Fatal(err)
		}
	}
	mk(small)
	mk(big)
	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "v", Type: "rtp-video", Addr: "a:1"}, nil) //nolint:errcheck
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "a", Type: "vat-audio", Addr: "a:2"}, nil) //nolint:errcheck
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "s", Type: "seminar",
		Components: map[string]string{"rtp-video": "v", "vat-audio": "a"}}, nil) //nolint:errcheck
	var ok wire.RecordOK
	if err := p.Call(wire.TypeRecord, wire.Record{
		Content: "talk", Type: "seminar", Port: "s", Estimate: 10 * time.Second, ControlAddr: "a:9",
	}, &ok); err != nil {
		t.Fatalf("composite record: %v", err)
	}
	if ok.MSU != "m2" {
		t.Fatalf("composite landed on %s, want m2 (the only MSU fitting both components)", ok.MSU)
	}
	if len(ok.Streams) != 2 {
		t.Fatalf("streams = %+v", ok.Streams)
	}
}
