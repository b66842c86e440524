package coordinator

import (
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/core"
	"calliope/internal/leakcheck"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// notedClient opens a session whose peer records stream-migrated and
// stream-lost notifications.
type notedClient struct {
	peer     *wire.Peer
	migrated chan wire.StreamMigrated
	lost     chan wire.StreamLost
}

func newNotedClient(t *testing.T, c *Coordinator) *notedClient {
	t.Helper()
	nc := &notedClient{
		migrated: make(chan wire.StreamMigrated, 4),
		lost:     make(chan wire.StreamLost, 4),
	}
	nc.peer = dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		switch msgType {
		case wire.TypeStreamMigrated:
			var m wire.StreamMigrated
			json.Unmarshal(body, &m) //nolint:errcheck
			nc.migrated <- m
		case wire.TypeStreamLost:
			var l wire.StreamLost
			json.Unmarshal(body, &l) //nolint:errcheck
			nc.lost <- l
		}
		return nil, nil
	})
	if err := nc.peer.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}, &wire.Welcome{}); err != nil {
		t.Fatal(err)
	}
	return nc
}

// recordingMSUPeer is fakeMSUPeer plus a log of StartStream specs.
func recordingMSUPeer(t *testing.T, c *Coordinator, id core.MSUID, contents []wire.ContentDecl, bw units.BitRate) (*wire.Peer, chan core.StreamSpec) {
	t.Helper()
	specs := make(chan core.StreamSpec, 16)
	p := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == wire.TypeStartStream {
			var req wire.StartStream
			json.Unmarshal(body, &req) //nolint:errcheck
			for _, spec := range req.Specs {
				specs <- spec
			}
			return startOK(body), nil
		}
		return nil, nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: id, Disks: []wire.DiskInfo{{
		BlockSize:   64 * 1024,
		TotalBlocks: 1000,
		FreeBlocks:  900,
		Bandwidth:   bw,
		Contents:    contents,
	}}}
	if err := p.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}
	return p, specs
}

// TestRedispatchToReplica: a play stream whose MSU dies moves onto the
// other MSU declaring the same content, keeping its group ID under a
// stream ID not used before, and the client is told via stream-migrated
// (§2.2 fault tolerance).
func TestRedispatchToReplica(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	m1, specs1 := recordingMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	_, specs2 := recordingMSUPeer(t, c, "m2", decl, 1500*units.Kbps)
	nc := newNotedClient(t, c)
	nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var ok wire.PlayOK
	if err := nc.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.MSU != "m1" {
		t.Fatalf("play placed on %q, want m1, the first holder in MSU id order", ok.MSU)
	}
	orig := <-specs1

	m1.Close()
	var moved wire.StreamMigrated
	select {
	case moved = <-nc.migrated:
		if moved.MSU != "m2" || moved.Group != ok.Group || len(moved.Streams) != 1 {
			t.Fatalf("migration notice: %+v", moved)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no stream-migrated notification")
	}
	select {
	case spec := <-specs2:
		if spec.Group != orig.Group || spec.Stream <= orig.Stream || spec.Stream != moved.Streams[0].Stream {
			t.Fatalf("re-dispatched spec %+v, want group %d under a stream ID after %d, the one the notice names", spec, orig.Group, orig.Stream)
		}
		if spec.Content != "movie" {
			t.Fatalf("re-dispatched content %q", spec.Content)
		}
	case <-time.After(time.Second):
		t.Fatal("replacement MSU never saw start-stream")
	}
	// The stream stays active, now accounted against m2.
	st := status(t, nc.peer)
	if n := st.Snapshot.Gauge(wire.GaugeActiveStreams); n != 1 {
		t.Fatalf("active streams = %d, want 1", n)
	}
	for _, d := range st.Disks {
		if d.Disk.MSU == "m2" && d.BandwidthUsed != 1500*units.Kbps {
			t.Fatalf("m2 bandwidth = %v, want one mpeg1 slot", d.BandwidthUsed)
		}
	}
}

// TestRedispatchLostWhenNoReplica: with no surviving replica the queued
// re-dispatch gives up at QueueTimeout and the client hears
// stream-lost — never a silent hang.
func TestRedispatchLostWhenNoReplica(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 50 * time.Millisecond})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	m1 := fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	nc := newNotedClient(t, c)
	nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	if err := nc.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	select {
	case l := <-nc.lost:
		if l.Reason == "" {
			t.Fatal("stream-lost without a reason")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no stream-lost notification")
	}
}

// TestRedispatchSingleOwnerOnCascadingFailure: the replacement MSU dies
// while the re-dispatch start-stream is in flight. Its msuDown finds
// the group's streams re-registered in the active table and must leave
// recovery to the goroutine that owns the group — a second recovery
// goroutine would race the first (regression: the client used to
// receive duplicate stream-lost notices, one per goroutine).
func TestRedispatchSingleOwnerOnCascadingFailure(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 200 * time.Millisecond})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	m1, _ := recordingMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	var m2 *wire.Peer
	m2 = dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == wire.TypeStartStream {
			// Die mid-dispatch: the Coordinator's RPC fails and m2's own
			// msuDown runs while the redispatcher still owns the group.
			m2.Close()
			return nil, errors.New("crashed")
		}
		return nil, nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m2", Disks: []wire.DiskInfo{{
		BlockSize:   64 * 1024,
		TotalBlocks: 1000,
		FreeBlocks:  900,
		Bandwidth:   1500 * units.Kbps,
		Contents:    decl,
	}}}
	if err := m2.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}

	nc := newNotedClient(t, c)
	nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var ok wire.PlayOK
	if err := nc.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.MSU != "m1" {
		t.Fatalf("play placed on %q, want m1, the first holder in MSU id order", ok.MSU)
	}

	m1.Close()
	select {
	case l := <-nc.lost:
		if l.Group != ok.Group {
			t.Fatalf("lost notice for group %d, want %d", l.Group, ok.Group)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no stream-lost after cascading failure")
	}
	// Exactly one verdict: no duplicate notices from a second goroutine.
	select {
	case l := <-nc.lost:
		t.Fatalf("duplicate stream-lost: %+v", l)
	case m := <-nc.migrated:
		t.Fatalf("stream-migrated after lost: %+v", m)
	case <-time.After(300 * time.Millisecond): // a negative check: the window a second verdict would arrive in
	}
	st := status(t, nc.peer)
	if n := st.Snapshot.Gauge(wire.GaugeActiveStreams); n != 0 {
		t.Fatalf("active streams = %d after lost group", n)
	}
}

// TestRecordingLostOnMSUDown: a recording cannot migrate — its data
// lives only on the failed MSU — so the client hears stream-lost
// immediately, and the dead MSU's bandwidth and space reservations are
// gone from the ledgers when it re-registers.
func TestRecordingLostOnMSUDown(t *testing.T) {
	c := startCoordinator(t, Config{})
	m1 := fakeMSUPeer(t, c, "m1", nil, 3000*units.Kbps)
	nc := newNotedClient(t, c)
	nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var ok wire.RecordOK
	req := wire.Record{Content: "clip", Type: "mpeg1", Port: "tv", ControlAddr: "a:9", Estimate: time.Minute}
	if err := nc.peer.Call(wire.TypeRecord, req, &ok); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	select {
	case l := <-nc.lost:
		if l.Group != ok.Group || !strings.Contains(l.Reason, "recording") {
			t.Fatalf("lost notice: %+v", l)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no stream-lost for failed recording")
	}
	// Re-registration starts from clean ledgers: full bandwidth, only
	// the standing space, no leaked stream reservations.
	fakeMSUPeer(t, c, "m1", nil, 3000*units.Kbps)
	st := status(t, nc.peer)
	if n := st.Snapshot.Gauge(wire.GaugeActiveStreams); n != 0 {
		t.Fatalf("active streams = %d after recording lost", n)
	}
	for _, d := range st.Disks {
		if d.Disk.MSU != "m1" {
			continue
		}
		if d.BandwidthUsed != 0 {
			t.Fatalf("bandwidth leaked across failure: %v", d.BandwidthUsed)
		}
		if d.SpaceUsed != 100*64*1024 { // 1000 total − 900 free blocks
			t.Fatalf("space used = %v, want standing only", d.SpaceUsed)
		}
	}
	// The full recording capacity is available again.
	if err := nc.peer.Call(wire.TypeRecord, req, &ok); err != nil {
		t.Fatalf("record after recovery: %v", err)
	}
}

// TestQueuedPlayAdmittedAfterMSUFailure: a queued request sees the
// bandwidth freed by a failure once the MSU returns (the failed
// client's stream is not re-dispatched because its session is gone).
func TestQueuedPlayAdmittedAfterMSUFailure(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 5 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	m1 := fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps) // one mpeg1 slot
	p1 := clientPeer(t, c)
	p1.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	if err := p1.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatal(err)
	}
	// The first client crashes; its stream still holds the only slot.
	p1.Close()

	p2 := clientPeer(t, c)
	p2.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	done := make(chan error, 1)
	go func() {
		done <- p2.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9", Wait: true}, nil)
	}()
	await.Until(t, "the play to queue", queueHolds(c, 1))
	select {
	case err := <-done:
		t.Fatalf("play admitted with no bandwidth: %v", err)
	default:
	}
	// MSU fails and returns; the dead session's stream is dropped, so
	// the queued play gets the freed slot.
	m1.Close()
	await.Until(t, "the Coordinator to mark m1 down", func() bool { return c.ObsSnapshot().Gauge(wire.GaugeMSUsAvailable) == 0 })
	fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued play after failure: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("queued play never admitted after MSU returned")
	}
}

// TestClientDownFreesPorts: a dying client session deallocates its
// display ports (§2.1) so the server does not accumulate dead state.
func TestClientDownFreesPorts(t *testing.T) {
	c := startCoordinator(t, Config{})
	p1 := clientPeer(t, c)
	if err := p1.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
		t.Fatal(err)
	}
	p1.Close()
	p2 := clientPeer(t, c)
	await.Until(t, "the dead session to go", func() bool { return status(t, p2).Snapshot.Gauge(wire.GaugeSessions) == 1 })
}

// TestReregisterDropsStaleContent: an MSU that re-registers without an
// item it used to declare must not leave the item schedulable
// (regression: msuHello only ever merged, never swept).
func TestReregisterDropsStaleContent(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{
		{Name: "movie", Type: "mpeg1"},
		{Name: "short", Type: "mpeg1"},
	}
	m1 := fakeMSUPeer(t, c, "m1", decl, 3000*units.Kbps)
	m1.Close()
	// Return minus "short" (deleted while the MSU was down).
	fakeMSUPeer(t, c, "m1", decl[:1], 3000*units.Kbps)

	p := clientPeer(t, c)
	var cl wire.ContentList
	if err := p.Call(wire.TypeListContent, struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	for _, item := range cl.Items {
		if item.Name == "short" {
			t.Fatal("stale content still listed after re-registration")
		}
	}
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	err := p.Call(wire.TypePlay, wire.Play{Content: "short", Port: "tv", ControlAddr: "a:9"}, nil)
	if err == nil || !strings.Contains(err.Error(), "no such content") {
		t.Fatalf("play of stale content: %v", err)
	}
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatalf("surviving content unplayable: %v", err)
	}
}

// TestReregisterDropsOnlyOwnReplica: sweeping stale declarations must
// not delete content still held by another MSU — only the stale
// location is forgotten and plays move to the surviving replica.
func TestReregisterDropsOnlyOwnReplica(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	m1 := fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	fakeMSUPeer(t, c, "m2", decl, 1500*units.Kbps)
	m1.Close()
	// m1 returns with nothing on disk.
	fakeMSUPeer(t, c, "m1", nil, 1500*units.Kbps)

	p := clientPeer(t, c)
	p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var ok wire.PlayOK
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &ok); err != nil {
		t.Fatalf("play after replica loss: %v", err)
	}
	if ok.MSU != "m2" {
		t.Fatalf("play placed on %q, want surviving replica m2", ok.MSU)
	}
}

// TestQueuedPlayWakesOnFailedDispatch: a play holds the disk's only slot
// while its StartStream is in flight; a second, Wait-ing play queues
// behind it. When the start fails, the rollback must wake the queue —
// the slot used to be freed silently, leaving the waiter asleep until
// some other stream ended or QueueTimeout fired.
func TestQueuedPlayWakesOnFailedDispatch(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 30 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	inFlight := make(chan struct{})
	fail := make(chan struct{})
	first := true
	mp := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType != wire.TypeStartStream {
			return nil, nil
		}
		if first { // start-streams arrive one at a time: the slot admits one play
			first = false
			close(inFlight)
			<-fail
			return nil, errors.New("disk refused the stream")
		}
		return startOK(body), nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m1", Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: 900,
		Bandwidth: 1500 * units.Kbps, Contents: decl, // one mpeg1 slot
	}}}
	if err := mp.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}
	play := func(wait bool) chan error {
		p := clientPeer(t, c)
		if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9", Wait: wait}, nil)
		}()
		return done
	}
	doomed := play(false)
	<-inFlight
	queued := play(true)
	await.Until(t, "the second play to queue behind the in-flight one", queueHolds(c, 1))
	close(fail)
	if err := <-doomed; err == nil || !strings.Contains(err.Error(), "disk refused") {
		t.Fatalf("first play: %v, want the MSU's refusal", err)
	}
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("queued play: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("queued play still asleep 3s after the slot was freed")
	}
}

// TestRedispatchDoesNotSpinOnFailingReplica: an orphaned group's only
// other replica refuses every StartStream. That refusal is retryable,
// but the rollback it causes frees nothing that was not taken by the
// same pass, so it must not wake the group's own wait: the group parks
// until something is released elsewhere or QueueTimeout, then is
// reported lost (regression: the pass woke itself and hot-looped tens of
// thousands of StartStream RPCs at the failing MSU under c.mu).
func TestRedispatchDoesNotSpinOnFailingReplica(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 500 * time.Millisecond})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	m1 := fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	var starts atomic.Int64
	m2 := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == wire.TypeStartStream {
			starts.Add(1)
			return nil, errors.New("disk refused the stream")
		}
		return nil, nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m2", Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: 900,
		Bandwidth: 1500 * units.Kbps, Contents: decl,
	}}}
	if err := m2.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}
	nc := newNotedClient(t, c)
	nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var ok wire.PlayOK
	if err := nc.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.MSU != "m1" {
		t.Fatalf("play placed on %q, want m1, the first holder in MSU id order", ok.MSU)
	}
	m1.Close()
	select {
	case l := <-nc.lost:
		if !strings.Contains(l.Reason, "disk refused") {
			t.Fatalf("stream-lost reason %q, want the replica's refusal", l.Reason)
		}
	case m := <-nc.migrated:
		t.Fatalf("group migrated to a replica that refuses every start: %+v", m)
	case <-time.After(5 * time.Second):
		t.Fatal("no stream-lost notification")
	}
	// One pass when the group is orphaned, one more at the deadline, and
	// a few for releases that happen to land in between.
	if n := starts.Load(); n < 1 || n > 5 {
		t.Fatalf("%d StartStream RPCs to the failing replica, want a handful", n)
	}
	if n := c.ObsSnapshot().Gauge(wire.GaugeActiveStreams); n != 0 {
		t.Fatalf("%d streams still active after the group was lost", n)
	}
}

// TestCloseWakesParkedRequests: Close must not wait out the pending
// queue. A Wait-ing play and an orphaned group's re-dispatch are both
// parked with thirty seconds to run; Close wakes them, each sees the
// Coordinator closed — the play is refused, the orphan's client hears
// nothing — and no goroutine is left behind.
func TestCloseWakesParkedRequests(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 30 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	mp := fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps) // one slot
	holder, waiter := newNotedClient(t, c), newNotedClient(t, c)
	for _, nc := range []*notedClient{holder, waiter} {
		if err := nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	play := wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}
	if err := holder.peer.Call(wire.TypePlay, play, nil); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	play.Wait = true
	go func() { queued <- waiter.peer.Call(wire.TypePlay, play, nil) }()
	// The MSU dies: the holder's group is orphaned and parks beside the
	// queued play, neither with anywhere to go.
	mp.Close()
	await.Until(t, "the play and the orphaned group to queue", queueHolds(c, 2))

	start := time.Now()
	c.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with two requests parked", took)
	}
	// The refusal races the connection teardown to the client; either
	// way it is not a queue-deadline verdict.
	if err := <-queued; err == nil || strings.Contains(err.Error(), "deadline") ||
		!(errors.Is(err, wire.ErrClosed) || strings.Contains(err.Error(), core.ErrSessionClosed.Error())) {
		t.Fatalf("queued play across Close: %v", err)
	}
	holder.peer.Close()
	waiter.peer.Close()
	select {
	case l := <-holder.lost:
		t.Fatalf("orphaned group reported lost on shutdown: %+v", l)
	case m := <-holder.migrated:
		t.Fatalf("orphaned group reported migrated on shutdown: %+v", m)
	default:
	}
	if s := c.ObsSnapshot(); s.Gauge(wire.GaugeQueuedPlays) != 0 || s.Counter("admission_rejected_total") != 0 || s.Counter("groups_lost_total") != 0 {
		t.Fatalf("after Close: queued gauge %d, counters %v", s.Gauge(wire.GaugeQueuedPlays), s.Counters)
	}
	if leaked := leakcheck.Check(5 * time.Second); len(leaked) > 0 {
		t.Fatalf("%d goroutines outlive Close:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestCloseWakesRedispatchMidStart: Close lands while an orphaned group's
// pass has dropped c.mu to start the group on its replica. The start
// fails with the closing connection; the pass must not then park on the
// wake-up Close has already spent.
func TestCloseWakesRedispatchMidStart(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 30 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1"}}
	m1 := fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps)
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	m2 := dialPeer(t, c, func(msgType string, _ json.RawMessage) (any, error) {
		if msgType == wire.TypeStartStream {
			close(entered)
			<-release
		}
		return nil, nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m2", Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: 900, Bandwidth: 1500 * units.Kbps, Contents: decl,
	}}}
	if err := m2.Call(wire.TypeMSUHello, hello, nil); err != nil {
		t.Fatal(err)
	}
	holder := newNotedClient(t, c)
	if err := holder.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
		t.Fatal(err)
	}
	var ok wire.PlayOK
	if err := holder.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &ok); err != nil || ok.MSU != "m1" {
		t.Fatalf("play on %q: %v, want m1", ok.MSU, err)
	}
	m1.Close()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("orphaned group never re-dispatched to m2")
	}
	start := time.Now()
	c.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a re-dispatch mid-start", took)
	}
	holder.peer.Close()
	select {
	case l := <-holder.lost:
		t.Fatalf("orphaned group reported lost on shutdown: %+v", l)
	default:
	}
}
