package coordinator

// Unit tests for the replication placement policy (DESIGN.md §3h) at
// the wire level: fake MSU peers observe the Coordinator's transfer
// plans directly.

import (
	"encoding/json"
	"testing"
	"time"

	"calliope/internal/core"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// replMSUPeer registers an MSU with a transfer address and records the
// replication traffic the Coordinator sends it, alongside StartStream
// specs.
type replMSUPeer struct {
	peer      *wire.Peer
	specs     chan core.StreamSpec
	replicate chan wire.Replicate
	abort     chan wire.ReplicateAbort
}

func newReplMSUPeer(t *testing.T, c *Coordinator, id core.MSUID, contents []wire.ContentDecl, bw units.BitRate, transferAddr string) *replMSUPeer {
	t.Helper()
	m := &replMSUPeer{
		specs:     make(chan core.StreamSpec, 16),
		replicate: make(chan wire.Replicate, 4),
		abort:     make(chan wire.ReplicateAbort, 4),
	}
	m.peer = dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		switch msgType {
		case wire.TypeStartStream:
			var req wire.StartStream
			json.Unmarshal(body, &req) //nolint:errcheck
			m.specs <- req.Spec
			return &wire.StartStreamOK{DataAddr: "127.0.0.1:9"}, nil
		case wire.TypeReplicate:
			var req wire.Replicate
			json.Unmarshal(body, &req) //nolint:errcheck
			m.replicate <- req
		case wire.TypeReplicateAbort:
			var req wire.ReplicateAbort
			json.Unmarshal(body, &req) //nolint:errcheck
			m.abort <- req
		}
		return nil, nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: id, TransferAddr: transferAddr, Disks: []wire.DiskInfo{{
		BlockSize:   64 * 1024,
		TotalBlocks: 1000,
		FreeBlocks:  900,
		Bandwidth:   bw,
		Contents:    contents,
	}}}
	if err := m.peer.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplicateQueuePressurePlansCopyAndAdmits: the sole holder of a
// title has too little idle bandwidth for a second play, so the
// Coordinator plans a copy onto the empty MSU at exactly the idle
// rate; when the destination commits, the queued play is admitted on
// the new replica and the catalog lists both locations.
func TestReplicateQueuePressurePlansCopyAndAdmits(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 10 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Size: 400 * units.KB, Length: 2 * time.Second}}
	// 2000 Kbps: one 1500 Kbps play fits, leaving 500 Kbps of slack —
	// short of a second play, plenty above the 64 Kbps transfer floor.
	m1 := newReplMSUPeer(t, c, "m1", decl, 2000*units.Kbps, "198.51.100.1:7001")
	m2 := newReplMSUPeer(t, c, "m2", nil, 2000*units.Kbps, "198.51.100.2:7001")

	nc := newNotedClient(t, c)
	nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	var first wire.PlayOK
	if err := nc.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, &first); err != nil {
		t.Fatal(err)
	}
	if first.MSU != "m1" {
		t.Fatalf("first play on %q, want m1", first.MSU)
	}
	<-m1.specs

	// The queued play blocks its connection, so it gets its own session.
	nc2 := newNotedClient(t, c)
	nc2.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "b:1"}, nil) //nolint:errcheck
	queued := make(chan wire.PlayOK, 1)
	errs := make(chan error, 1)
	go func() {
		var ok wire.PlayOK
		if err := nc2.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "b:9", Wait: true}, &ok); err != nil {
			errs <- err
			return
		}
		queued <- ok
	}()

	var plan wire.Replicate
	select {
	case plan = <-m2.replicate:
	case err := <-errs:
		t.Fatalf("queued play failed instead of planning a copy: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("destination never received a replicate plan")
	}
	if plan.Content != "movie" || plan.Source != "198.51.100.1:7001" || plan.Disk != 0 {
		t.Fatalf("replicate plan = %+v", plan)
	}
	if plan.Rate != 500*units.Kbps {
		t.Fatalf("transfer rate = %v, want the holder's 500 Kbps of slack", plan.Rate)
	}

	// The destination reports the verified copy; the Coordinator must
	// ack (journal) it and then admit the queued play on m2.
	done := wire.ReplicateDone{
		ID: plan.ID, Content: plan.Content, Type: plan.Type, Disk: plan.Disk,
		Size: plan.Size, Length: plan.Length, Bytes: int64(plan.Size),
	}
	if err := m2.peer.Call(wire.TypeReplicateDone, done, nil); err != nil {
		t.Fatalf("replicate-done rejected: %v", err)
	}
	select {
	case ok := <-queued:
		if ok.MSU != "m2" {
			t.Fatalf("queued play admitted on %q, want the new replica on m2", ok.MSU)
		}
	case err := <-errs:
		t.Fatalf("queued play failed after the commit: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("queued play never admitted after the replica committed")
	}
	<-m2.specs

	st := status(t, nc.peer)
	if st.Snapshot.Counter(wire.CounterReplDone) != 1 || st.Snapshot.Gauge(wire.GaugeReplActive) != 0 || st.Snapshot.Counter(wire.CounterReplBytes) != int64(plan.Size) {
		t.Fatalf("repl stats: gauges %v counters %v", st.Snapshot.Gauges, st.Snapshot.Counters)
	}
	var list wire.ContentList
	if err := nc.peer.Call(wire.TypeListContent, struct{}{}, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Items) != 1 || len(list.Items[0].Replicas) != 2 {
		t.Fatalf("content list = %+v, want movie with 2 replicas", list.Items)
	}
	if list.Items[0].Replicas[0] != (core.DiskID{MSU: "m1", N: 0}) {
		t.Fatalf("primary replica = %v, want m1/disk0 first", list.Items[0].Replicas[0])
	}
}

// TestReplicateAbortOnSourceDown: the source MSU dies mid-plan. The
// destination is told to abort, the stats count the loss, and no
// location is ever recorded for the dead transfer.
func TestReplicateAbortOnSourceDown(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 2 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Size: 400 * units.KB, Length: 2 * time.Second}}
	m1 := newReplMSUPeer(t, c, "m1", decl, 2000*units.Kbps, "198.51.100.1:7001")
	m2 := newReplMSUPeer(t, c, "m2", nil, 2000*units.Kbps, "198.51.100.2:7001")

	nc := newNotedClient(t, c)
	nc.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil) //nolint:errcheck
	if err := nc.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "a:9"}, nil); err != nil {
		t.Fatal(err)
	}
	<-m1.specs

	nc2 := newNotedClient(t, c)
	nc2.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "b:1"}, nil) //nolint:errcheck
	errs := make(chan error, 1)
	go func() {
		errs <- nc2.peer.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "b:9", Wait: true}, nil)
	}()

	var plan wire.Replicate
	select {
	case plan = <-m2.replicate:
	case <-time.After(5 * time.Second):
		t.Fatal("destination never received a replicate plan")
	}

	m1.peer.Close() // the source crashes
	select {
	case ab := <-m2.abort:
		if ab.ID != plan.ID {
			t.Fatalf("abort for transfer %d, want %d", ab.ID, plan.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("destination never told to abort after the source died")
	}
	// The queued play cannot be satisfied (sole holder gone, copy
	// aborted) and resolves with an error at the queue timeout.
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("queued play admitted although the source died mid-copy")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued play never resolved")
	}
	st := status(t, nc.peer)
	if st.Snapshot.Gauge(wire.GaugeReplActive) != 0 || st.Snapshot.Counter(wire.CounterReplAborted) < 1 || st.Snapshot.Counter(wire.CounterReplDone) != 0 {
		t.Fatalf("repl stats: gauges %v counters %v", st.Snapshot.Gauges, st.Snapshot.Counters)
	}
	var list wire.ContentList
	if err := nc.peer.Call(wire.TypeListContent, struct{}{}, &list); err != nil {
		t.Fatal(err)
	}
	// The catalog remembers the (dead) holder's copy so a returning m1
	// serves again — but the aborted transfer must not have left an m2
	// location behind.
	if len(list.Items) != 1 || len(list.Items[0].Replicas) != 1 ||
		list.Items[0].Replicas[0] != (core.DiskID{MSU: "m1", N: 0}) {
		t.Fatalf("content list = %+v, want movie on m1/disk0 only", list.Items)
	}
}
