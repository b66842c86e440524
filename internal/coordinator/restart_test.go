package coordinator

import (
	"strings"
	"testing"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// Restart tests drive a Coordinator against an in-memory admindb
// store, "crash" it with Close (crash-equivalent at the storage layer:
// every mutation is journaled before its ack, and Close writes
// nothing), and hand the same store to a fresh Coordinator.

// TestRestartPersistsCatalogCountersTypes: the table of contents with
// replica locations, admin-installed types, and every ID counter
// survive a restart — before any MSU re-registers — and the restarted
// Coordinator never re-issues session/stream/group IDs that were live
// at the crash.
func TestRestartPersistsCatalogCountersTypes(t *testing.T) {
	store := admindb.NewMem()
	c1 := startCoordinator(t, Config{Store: store})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	fakeMSUPeer(t, c1, "m1", decl, 3000*units.Kbps)

	p := dialPeer(t, c1, nil)
	var w1 wire.Welcome
	if err := p.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}, &w1); err != nil {
		t.Fatal(err)
	}
	newType := core.ContentType{Name: "jpeg", Class: core.ConstantRate, Bandwidth: units.Mbps, Storage: units.Mbps, Protocol: "cbr"}
	if err := p.Call(wire.TypeAddType, wire.AddType{Type: newType}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
		t.Fatal(err)
	}
	var play1 wire.PlayOK
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &play1); err != nil {
		t.Fatal(err)
	}

	c1.Close()
	c2 := startCoordinator(t, Config{Store: store})

	// The catalog is there before any MSU has re-registered, with the
	// replica location intact.
	c2.mu.Lock()
	rec := c2.db.Content("movie")
	var loc core.DiskID
	var hasLoc bool
	if rec != nil {
		loc, hasLoc = rec.Locate("m1")
	}
	c2.mu.Unlock()
	if rec == nil {
		t.Fatal("content catalog lost in restart")
	}
	if !hasLoc || loc != (core.DiskID{MSU: "m1", N: 0}) {
		t.Fatalf("replica location lost in restart: %v (present=%v)", loc, hasLoc)
	}

	p2 := dialPeer(t, c2, nil)
	var w2 wire.Welcome
	if err := p2.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}, &w2); err != nil {
		t.Fatal(err)
	}
	if w2.Session <= w1.Session {
		t.Fatalf("session ID reissued: %d after %d", w2.Session, w1.Session)
	}
	var cl wire.ContentList
	if err := p2.Call(wire.TypeListContent, struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	if len(cl.Items) != 1 || cl.Items[0].Name != "movie" {
		t.Fatalf("content list after restart = %+v", cl.Items)
	}
	var tl wire.TypeList
	if err := p2.Call(wire.TypeListTypes, struct{}{}, &tl); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, typ := range tl.Types {
		if typ.Name == "jpeg" {
			found = true
		}
	}
	if !found {
		t.Fatalf("admin-installed type lost in restart: %+v", tl.Types)
	}

	// The MSU re-registers, the client plays again: the new group and
	// stream IDs must be strictly greater than everything issued before
	// the crash (the pre-crash stream may still be running end-to-end).
	fakeMSUPeer(t, c2, "m1", decl, 3000*units.Kbps)
	if err := p2.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
		t.Fatal(err)
	}
	var play2 wire.PlayOK
	if err := p2.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &play2); err != nil {
		t.Fatal(err)
	}
	if play2.Group <= play1.Group {
		t.Fatalf("group ID reissued: %d after %d", play2.Group, play1.Group)
	}
	if play2.Streams[0].Stream <= play1.Streams[0].Stream {
		t.Fatalf("stream ID reissued: %d after %d", play2.Streams[0].Stream, play1.Streams[0].Stream)
	}
}

// recordOn starts a recording and returns its RecordOK.
func recordOn(t *testing.T, p *wire.Peer, name string) wire.RecordOK {
	t.Helper()
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "cam-" + name, Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
		t.Fatal(err)
	}
	var ok wire.RecordOK
	if err := p.Call(wire.TypeRecord, wire.Record{
		Content: name, Type: "mpeg1", Port: "cam-" + name, Estimate: 5 * time.Second, ControlAddr: "a:9",
	}, &ok); err != nil {
		t.Fatal(err)
	}
	return ok
}

// TestRestartReportsRecordingLost: a recording in flight at the crash
// is found in the store, reported via Status.LostRecordings, and
// settled — a second restart no longer reports it.
func TestRestartReportsRecordingLost(t *testing.T) {
	store := admindb.NewMem()
	c1 := startCoordinator(t, Config{Store: store})
	fakeMSUPeer(t, c1, "m1", nil, 3000*units.Kbps)
	p := clientPeer(t, c1)
	recordOn(t, p, "show")
	// A real crash writes nothing on the way down. Graceful Close would
	// settle the recording through the msuDown path, so cut the store
	// off first: writes after this point are lost, as in a crash.
	store.Close() //nolint:errcheck
	c1.Close()
	store.Reopen()

	c2 := startCoordinator(t, Config{Store: store})
	p2 := clientPeer(t, c2)
	st := status(t, p2)
	if n := st.Snapshot.Gauge(wire.GaugeLostRecs); n != 1 {
		t.Fatalf("LostRecordings = %d, want 1", n)
	}
	if st.Snapshot.Gauge(wire.GaugeContents) != 0 {
		t.Fatalf("uncommitted recording appeared in the catalog: %+v", st)
	}
	c2.Close()

	c3 := startCoordinator(t, Config{Store: store})
	p3 := clientPeer(t, c3)
	st3 := status(t, p3)
	if n := st3.Snapshot.Gauge(wire.GaugeLostRecs); n != 0 {
		t.Fatalf("settled recording reported lost again: %d", n)
	}
}

// TestRestartCommittedRecordingNotLost: once every component of a
// recording commits, the in-flight entry is settled durably — a crash
// right after the commit neither loses the content nor reports a lost
// recording.
func TestRestartCommittedRecordingNotLost(t *testing.T) {
	store := admindb.NewMem()
	c1 := startCoordinator(t, Config{Store: store})
	mp := fakeMSUPeer(t, c1, "m1", nil, 3000*units.Kbps)
	p := clientPeer(t, c1)
	ok := recordOn(t, p, "show")
	if err := mp.Call(wire.TypeRecordingDone, wire.RecordingDone{
		Stream: ok.Streams[0].Stream, Content: "show", Type: "mpeg1",
		Disk: 0, Length: 3 * time.Second, Size: 128 * units.KB,
	}, nil); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := startCoordinator(t, Config{Store: store})
	p2 := clientPeer(t, c2)
	st := status(t, p2)
	if n := st.Snapshot.Gauge(wire.GaugeLostRecs); n != 0 {
		t.Fatalf("committed recording reported lost: %d", n)
	}
	var cl wire.ContentList
	if err := p2.Call(wire.TypeListContent, struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	if len(cl.Items) != 1 || cl.Items[0].Name != "show" {
		t.Fatalf("committed recording lost from catalog: %+v", cl.Items)
	}
}

// TestOrphanRecordingDoneCommits: an MSU that recorded across a
// Coordinator restart commits a stream the new Coordinator never
// dispatched. The file on disk is ground truth: the content is
// admitted into the (durable) catalog instead of being stranded.
func TestOrphanRecordingDoneCommits(t *testing.T) {
	store := admindb.NewMem()
	c := startCoordinator(t, Config{Store: store})
	mp := fakeMSUPeer(t, c, "m1", nil, 3000*units.Kbps)
	if err := mp.Call(wire.TypeRecordingDone, wire.RecordingDone{
		Stream: 999, Content: "across-restart", Type: "mpeg1",
		Disk: 0, Length: 2 * time.Second, Size: 64 * units.KB,
	}, nil); err != nil {
		t.Fatalf("orphan recording-done rejected: %v", err)
	}
	p := clientPeer(t, c)
	var cl wire.ContentList
	if err := p.Call(wire.TypeListContent, struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	if len(cl.Items) != 1 || cl.Items[0].Name != "across-restart" {
		t.Fatalf("orphan commit not in catalog: %+v", cl.Items)
	}
	// A name collision is still rejected.
	err := mp.Call(wire.TypeRecordingDone, wire.RecordingDone{
		Stream: 1000, Content: "across-restart", Type: "mpeg1", Disk: 0,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "across-restart") {
		t.Fatalf("duplicate orphan commit accepted: %v", err)
	}
	// And the commit is durable.
	c.Close()
	c2 := startCoordinator(t, Config{Store: store})
	c2.mu.Lock()
	ok := c2.db.Content("across-restart") != nil
	c2.mu.Unlock()
	if !ok {
		t.Fatal("orphan commit lost in restart")
	}
}

// TestRestartStaleContentSwept: content in the durable catalog that a
// re-registering MSU no longer declares (deleted while the Coordinator
// was down) is swept — and the sweep itself is durable.
func TestRestartStaleContentSwept(t *testing.T) {
	store := admindb.NewMem()
	c1 := startCoordinator(t, Config{Store: store})
	decl := []wire.ContentDecl{
		{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: units.MB},
		{Name: "stale", Type: "mpeg1", Length: time.Minute, Size: units.MB},
	}
	fakeMSUPeer(t, c1, "m1", decl, 3000*units.Kbps)
	c1.Close()

	c2 := startCoordinator(t, Config{Store: store})
	// The MSU comes back without "stale".
	fakeMSUPeer(t, c2, "m1", decl[:1], 3000*units.Kbps)
	p := clientPeer(t, c2)
	var cl wire.ContentList
	if err := p.Call(wire.TypeListContent, struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	if len(cl.Items) != 1 || cl.Items[0].Name != "movie" {
		t.Fatalf("stale content not swept after restart: %+v", cl.Items)
	}
	c2.Close()
	c3 := startCoordinator(t, Config{Store: store})
	c3.mu.Lock()
	stale := c3.db.Content("stale") != nil
	c3.mu.Unlock()
	if stale {
		t.Fatal("stale-content sweep was not persisted")
	}
}
