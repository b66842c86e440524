package coordinator

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"calliope/internal/obs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// One protocol generation: a client or MSU announcing any revision other
// than ours — 0, a hello without the field, included — is turned away
// with an error naming both versions.
func TestProtoVersionMismatch(t *testing.T) {
	c := startCoordinator(t, Config{})
	disks := []wire.DiskInfo{{BlockSize: 64, TotalBlocks: 10}}
	for _, v := range []int{0, 1, wire.ProtoVersion + 1} {
		named := fmt.Sprintf("protocol v%d, coordinator speaks v%d", v, wire.ProtoVersion)
		err := dialPeer(t, c, nil).Call(wire.TypeHello, wire.Hello{User: "t", ProtoVersion: v}, nil)
		if err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("v%d client hello: %v", v, err)
		}
		err = dialPeer(t, c, nil).Call(wire.TypeMSUHello, wire.MSUHello{ID: "m1", ProtoVersion: v, Disks: disks}, nil)
		if err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("v%d MSU hello: %v", v, err)
		}
	}
	if err := dialPeer(t, c, nil).Call(wire.TypeHello, wire.Hello{User: "t", ProtoVersion: wire.ProtoVersion}, &wire.Welcome{}); err != nil {
		t.Fatalf("current hello rejected: %v", err)
	}
	if err := dialPeer(t, c, nil).Call(wire.TypeMSUHello, wire.MSUHello{ID: "m1", ProtoVersion: wire.ProtoVersion, Disks: disks}, nil); err != nil {
		t.Fatalf("current MSU hello rejected: %v", err)
	}
	// The v1 status request went with v1.
	if err := clientPeer(t, c).Call("status", struct{}{}, nil); err == nil || !strings.Contains(err.Error(), "unknown message") {
		t.Fatalf("v1 status request: %v", err)
	}
}

// StatusV2 is the one status report: the gauges overlaid from the
// scheduler's tables, the Coordinator's own counters under the names the
// harness and /metrics read (registered, so present at zero), the Go
// runtime's figures, and the per-disk and per-NIC ledger detail.
func TestStatusV2Snapshot(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	fakeMSUPeer(t, c, "m1", decl, 3000*units.Kbps)
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &wire.PlayOK{}); err != nil {
		t.Fatal(err)
	}

	v2 := status(t, p)
	if v2.Version != wire.ProtoVersion {
		t.Fatalf("version = %d, want %d", v2.Version, wire.ProtoVersion)
	}
	s := v2.Snapshot
	for name, want := range map[string]int64{
		wire.GaugeMSUs: 1, wire.GaugeMSUsAvailable: 1, wire.GaugeActiveStreams: 1, wire.GaugeContents: 1,
		wire.GaugeSessions: 1, wire.GaugeQueuedPlays: 0, wire.GaugeLostRecs: 0, wire.GaugeReplActive: 0,
	} {
		if got, ok := s.Gauges[name]; !ok || got != want {
			t.Errorf("gauge %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	// msu-hello, hello, register-port, play and this status-v2.
	for name, want := range map[string]int64{
		wire.CounterRequests: 5, "admission_admitted_total": 1, "dispatch_total": 1,
		wire.CounterReplPlanned: 0, wire.CounterReplDone: 0, wire.CounterReplAborted: 0,
		wire.CounterReplDropped: 0, wire.CounterReplBytes: 0,
	} {
		if got, ok := s.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if s.Gauges[obs.RuntimeGoroutines] < 1 || s.Counters[obs.RuntimeHeapAllocs] < 1 {
		t.Errorf("runtime figures: %s = %d, %s = %d", obs.RuntimeGoroutines, s.Gauges[obs.RuntimeGoroutines], obs.RuntimeHeapAllocs, s.Counters[obs.RuntimeHeapAllocs])
	}
	for _, name := range []string{obs.RuntimeSchedLatency, obs.RuntimeGCPauses} {
		if h, ok := s.Hists[name]; !ok || len(h.Bounds) != len(obs.RuntimeBuckets) {
			t.Errorf("histogram %s = %+v (present %v), want one on obs.RuntimeBuckets", name, h, ok)
		}
	}
	if len(v2.Disks) != 1 || len(v2.Net) != 1 || v2.Net[0].Used != 1500*units.Kbps {
		t.Fatalf("ledger detail: disks %+v net %+v", v2.Disks, v2.Net)
	}
	if got := c.ObsSnapshot(); got.Counter(wire.CounterRequests) != 5 || got.Gauge(wire.GaugeActiveStreams) != 1 {
		t.Fatalf("/metrics snapshot disagrees with StatusV2: %+v", got)
	}
}

// The events RPC must page the timeline in order, filter by stream,
// and long-poll until a new event arrives.
func TestEventsRPC(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	fakeMSUPeer(t, c, "m1", decl, 3000*units.Kbps)
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
		t.Fatal(err)
	}
	var ok wire.PlayOK
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &ok); err != nil {
		t.Fatal(err)
	}

	var rep wire.EventsReply
	if err := p.Call(wire.TypeEvents, wire.EventsRequest{}, &rep); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	last := uint64(0)
	for _, ev := range rep.Events {
		if ev.Seq <= last {
			t.Fatalf("events out of order: %+v", rep.Events)
		}
		last = ev.Seq
		kinds[ev.Kind]++
	}
	if kinds[obs.EvMSUUp] != 1 || kinds[obs.EvAdmit] != 1 || kinds[obs.EvDispatch] != 1 {
		t.Fatalf("kinds = %v", kinds)
	}
	if rep.Next != last {
		t.Fatalf("next = %d, want %d", rep.Next, last)
	}

	// Stream filter: only the dispatch names the stream.
	var filtered wire.EventsReply
	if err := p.Call(wire.TypeEvents, wire.EventsRequest{Stream: uint64(ok.Streams[0].Stream)}, &filtered); err != nil {
		t.Fatal(err)
	}
	for _, ev := range filtered.Events {
		if ev.Stream != uint64(ok.Streams[0].Stream) {
			t.Fatalf("filter leaked %+v", ev)
		}
	}
	if len(filtered.Events) == 0 {
		t.Fatal("stream filter returned nothing")
	}

	// Long poll: a request past the end parks until the next event.
	type pollResult struct {
		rep wire.EventsReply
		err error
	}
	got := make(chan pollResult, 1)
	go func() {
		var r wire.EventsReply
		err := p.Call(wire.TypeEvents, wire.EventsRequest{Since: rep.Next, WaitMillis: 5000}, &r)
		got <- pollResult{r, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("long poll returned early: %+v %v", r.rep, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &wire.PlayOK{}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.rep.Events) == 0 {
			t.Fatal("long poll woke with no events")
		}
		for _, ev := range r.rep.Events {
			if ev.Seq <= rep.Next {
				t.Fatalf("long poll replayed old event %+v", ev)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll missed the wakeup")
	}
}

// Every kind of parked request shows on the pending-queue instruments —
// a queued recording as much as a queued play — and a refusal counts as
// rejected exactly once, however it ends.
func TestQueueInstrumentsCoverEveryRequestKind(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 400 * time.Millisecond})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	fakeMSUPeer(t, c, "m1", decl, 1500*units.Kbps) // one mpeg1 slot, for plays and recordings alike
	session := func() *wire.Peer {
		p := clientPeer(t, c)
		if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
			t.Fatal(err)
		}
		return p
	}
	play := wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}
	holder := session()
	if err := holder.Call(wire.TypePlay, play, &wire.PlayOK{}); err != nil {
		t.Fatal(err)
	}
	// Not waiting: refused at once, never queued.
	if err := holder.Call(wire.TypePlay, play, nil); err == nil {
		t.Fatal("second play admitted on a one-slot disk")
	}
	if s := c.ObsSnapshot(); s.Counter("admission_rejected_total") != 1 || s.Counter("admission_queued_total") != 0 {
		t.Fatalf("after an immediate refusal: %+v", s.Counters)
	}

	errs := make(chan error, 2)
	play.Wait = true
	go func(p *wire.Peer) { errs <- p.Call(wire.TypePlay, play, nil) }(session())
	go func(p *wire.Peer) {
		errs <- p.Call(wire.TypeRecord, wire.Record{Content: "clip", Type: "mpeg1", Port: "tv",
			Estimate: time.Second, ControlAddr: "127.0.0.1:9", Wait: true}, nil)
	}(session())
	for deadline := time.Now().Add(5 * time.Second); c.ObsSnapshot().Gauge(wire.GaugeQueuedPlays) != 2; {
		if time.Now().After(deadline) {
			t.Fatalf("queued gauge = %d, want the play and the recording", c.ObsSnapshot().Gauge(wire.GaugeQueuedPlays))
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("queued request: %v, want a deadline refusal", err)
		}
	}
	s := c.ObsSnapshot()
	if s.Gauge(wire.GaugeQueuedPlays) != 0 || s.Counter("admission_queued_total") != 2 || s.Counter("admission_rejected_total") != 3 {
		t.Fatalf("after the deadline: queued gauge %d, counters %+v", s.Gauge(wire.GaugeQueuedPlays), s.Counters)
	}
	if h := s.Hists["queue_wait_seconds"]; h.Count != 0 {
		t.Fatalf("queue_wait_seconds observed %d waits, but nothing queued was admitted", h.Count)
	}
	evs, _ := c.Events(0, 0, 0)
	queued := 0
	for _, ev := range evs {
		if ev.Kind == obs.EvQueue {
			queued++
			if ev.Content == "" || ev.Detail == "" || ev.Session == 0 {
				t.Fatalf("queue event does not say who waits for what: %+v", ev)
			}
		}
	}
	if queued != 2 {
		t.Fatalf("%d queue events, want one per parked request", queued)
	}
}
