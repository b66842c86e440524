package coordinator

// Cache-aware admission (§2.2 extended): plays of warmly cached
// content reserve NIC bandwidth only — no disk duty-cycle slot — and a
// cache report re-evaluates the pending queue.

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/trace"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// fakeMSUPeerNet registers a fake MSU with an explicit NIC budget.
func fakeMSUPeerNet(t *testing.T, c *Coordinator, id core.MSUID, contents []wire.ContentDecl, diskBW, netBW units.BitRate) *wire.Peer {
	t.Helper()
	p := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == wire.TypeStartStream {
			return &wire.StartStreamOK{}, nil
		}
		return nil, nil
	})
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: id, NetBandwidth: netBW, Disks: []wire.DiskInfo{{
		BlockSize:   64 * 1024,
		TotalBlocks: 1000,
		FreeBlocks:  900,
		Bandwidth:   diskBW,
		Contents:    contents,
	}}}
	if err := p.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// reportSeq numbers the cache reports the tests' hand-rolled MSUs send:
// one counter for all of them keeps each one's reports in order.
var reportSeq atomic.Uint64

// reportWarm advertises the content as fully cached on disk 0. Sent as
// a Call so the test proceeds only after the Coordinator applied it.
func reportWarm(t *testing.T, mp *wire.Peer, name string, players int) {
	t.Helper()
	err := mp.Call(wire.TypeCacheReport, wire.CacheReport{
		Seq:   reportSeq.Add(1),
		Disk:  0,
		Stats: trace.CacheStats{Hits: 10, Misses: 1, Inserts: 1},
		Coverage: []wire.ContentCoverage{
			{Name: name, CachedPages: 40, TotalPages: 40, Players: players},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmPlaySkipsDiskSlot: once content is warmly cached, plays stop
// consuming disk bandwidth — the NIC ledger becomes the binding limit.
func TestWarmPlaySkipsDiskSlot(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	// Disk sustains one 1500 Kbps stream; the NIC sustains three.
	mp := fakeMSUPeerNet(t, c, "m1", decl, 1500*units.Kbps, 4500*units.Kbps)
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
		t.Fatal(err)
	}
	reportWarm(t, mp, "movie", 1)
	play := func() error {
		var resp wire.PlayOK
		return p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &resp)
	}
	// Three warm plays admit — the single disk slot would allow one.
	for i := 0; i < 3; i++ {
		if err := play(); err != nil {
			t.Fatalf("warm play %d: %v", i+1, err)
		}
	}
	if err := play(); err == nil {
		t.Fatal("fourth play exceeded NIC bandwidth but was admitted")
	}
	st := status(t, p)
	if st.Disks[0].BandwidthUsed != 0 {
		t.Fatalf("warm plays consumed disk bandwidth: %v", st.Disks[0].BandwidthUsed)
	}
	if len(st.Net) != 1 || st.Net[0].Used != 4500*units.Kbps {
		t.Fatalf("net usage = %+v", st.Net)
	}
	if st.Disks[0].Cache.Hits != 10 || len(st.Disks[0].Cached) != 1 {
		t.Fatalf("cache state not surfaced in status: %+v", st.Disks[0])
	}
}

// TestColdPlayStillDiskLimited: without cache reports the net ledger
// defaults to the sum of the disk budgets, so admission limits are
// exactly as before the cache existed.
func TestColdPlayStillDiskLimited(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	fakeMSUPeer(t, c, "m1", decl, 3000*units.Kbps)
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
		t.Fatal(err)
	}
	play := func() error {
		var resp wire.PlayOK
		return p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &resp)
	}
	if err := play(); err != nil {
		t.Fatal(err)
	}
	if err := play(); err != nil {
		t.Fatal(err)
	}
	if err := play(); err == nil {
		t.Fatal("third cold play admitted past disk bandwidth")
	}
	st := status(t, p)
	if st.Disks[0].BandwidthUsed != 3000*units.Kbps {
		t.Fatalf("cold plays must hold disk slots: %v", st.Disks[0].BandwidthUsed)
	}
}

// TestCacheReportAdmitsQueuedPlay: a play queued on a full disk admits
// the moment a cache report declares its content warm.
func TestCacheReportAdmitsQueuedPlay(t *testing.T) {
	c := startCoordinator(t, Config{QueueTimeout: 5 * time.Second})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	mp := fakeMSUPeerNet(t, c, "m1", decl, 1500*units.Kbps, 3000*units.Kbps)
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
		t.Fatal(err)
	}
	// Cold play takes the only disk slot.
	var first wire.PlayOK
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &first); err != nil {
		t.Fatal(err)
	}
	// Second play queues (Wait) — no disk slot left.
	done := make(chan error, 1)
	go func() {
		var resp wire.PlayOK
		done <- p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9", Wait: true}, &resp)
	}()
	select {
	case err := <-done:
		t.Fatalf("queued play returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	// The MSU reports the title warm; the queued play must now admit
	// with NIC bandwidth alone.
	reportWarm(t, mp, "movie", 1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued play after warm report: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("queued play not admitted after cache report")
	}
	st := status(t, p)
	if st.Disks[0].BandwidthUsed != 1500*units.Kbps {
		t.Fatalf("disk usage = %v, want only the cold play's slot", st.Disks[0].BandwidthUsed)
	}
	if st.Net[0].Used != 3000*units.Kbps {
		t.Fatalf("net usage = %v, want both plays", st.Net[0].Used)
	}
}

// TestWarmPlayReleaseAccounting: ending a warm play returns its NIC
// reservation and leaves the untouched disk ledger alone.
func TestWarmPlayReleaseAccounting(t *testing.T) {
	c := startCoordinator(t, Config{})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 10 * units.MB}}
	mp := fakeMSUPeerNet(t, c, "m1", decl, 1500*units.Kbps, 3000*units.Kbps)
	p := clientPeer(t, c)
	if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "127.0.0.1:9"}, nil); err != nil {
		t.Fatal(err)
	}
	reportWarm(t, mp, "movie", 0)
	var resp wire.PlayOK
	if err := p.Call(wire.TypePlay, wire.Play{Content: "movie", Port: "tv", ControlAddr: "127.0.0.1:9"}, &resp); err != nil {
		t.Fatal(err)
	}
	st := status(t, p)
	if st.Disks[0].BandwidthUsed != 0 || st.Net[0].Used != 1500*units.Kbps {
		t.Fatalf("after warm play: disk=%v net=%v", st.Disks[0].BandwidthUsed, st.Net[0].Used)
	}
	if err := mp.Call(wire.TypeStreamEnded, wire.StreamEnded{Stream: resp.Streams[0].Stream, Cause: "test"}, nil); err != nil {
		t.Fatal(err)
	}
	st = status(t, p)
	if st.Snapshot.Gauge(wire.GaugeActiveStreams) != 0 || st.Disks[0].BandwidthUsed != 0 || st.Net[0].Used != 0 {
		t.Fatalf("after release: streams=%d disk=%v net=%v", st.Snapshot.Gauge(wire.GaugeActiveStreams), st.Disks[0].BandwidthUsed, st.Net[0].Used)
	}
}

// TestStaleCacheReportDropped: two players stopping at once can put an
// MSU's cumulative snapshots on the wire out of order. The older one,
// arriving second, is dropped — differenced against the newer it would
// read as a counter reset and its packets would be counted again — and
// the report after it is differenced against the newest merged.
func TestStaleCacheReportDropped(t *testing.T) {
	c := startCoordinator(t, Config{})
	mp := fakeMSUPeerNet(t, c, "m1", nil, 1500*units.Kbps, 4500*units.Kbps)
	report := func(seq uint64, packets int64, hits int64) {
		t.Helper()
		snap := obs.Snapshot{Counters: map[string]int64{"delivery_packets_total": packets}}
		err := mp.Call(wire.TypeCacheReport, wire.CacheReport{Seq: seq, Disk: 0, Obs: &snap, Stats: trace.CacheStats{Hits: hits}}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	merged := func() int64 { return c.ObsSnapshot().Counter("delivery_packets_total") }
	base := reportSeq.Add(3) - 3
	report(base+2, 500, 50) // taken second, arrives first
	if n := merged(); n != 500 {
		t.Fatalf("delivery_packets_total = %d after the first report, want 500", n)
	}
	report(base+1, 300, 30) // taken first, arrives second
	if n := merged(); n != 500 {
		t.Errorf("delivery_packets_total = %d after a stale report of 300, want 500 still", n)
	}
	c.mu.Lock()
	hits := c.msus["m1"].disks[0].cache.Hits
	c.mu.Unlock()
	if hits != 50 {
		t.Errorf("the disk's cache figures are the stale report's (%d hits), want the newer one's 50", hits)
	}
	report(base+3, 650, 65)
	if n := merged(); n != 650 {
		t.Errorf("delivery_packets_total = %d after the next report of 650, want 650", n)
	}
}
