package calliope

// Integration tests for demand-driven content replication (DESIGN.md
// §3h): a queued play that no replica can serve drives the Coordinator
// to copy the content MSU-to-MSU over idle bandwidth, the queued play
// is admitted on the new replica, and deletes or MSU crashes mid-copy
// leave no partial replica behind.

import (
	"net"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/coordinator"
	"calliope/internal/core"
	"calliope/internal/faultinject"
	"calliope/internal/msufs"
	"calliope/internal/obs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

const (
	hogDur   = 8 * time.Second
	movieDur = 2 * time.Second
)

// replCluster starts two MSUs where only msu0 holds content: "hog" (a
// long title used to soak its disk) and "movie" (the title under
// test). The disk budget is 4000 Kbps, so two 1500 Kbps hog plays
// leave 1000 Kbps idle — too little to admit a third mpeg1 stream,
// comfortably above the replication floor. A queued "movie" play then
// forces the Coordinator to replicate it onto the empty msu1 over the
// leftover bandwidth. Caching is disabled so plays stay disk-bound and
// the ledger arithmetic is exact.
func replCluster(t *testing.T, repl coordinator.ReplicationConfig, queueTimeout time.Duration, stateDir string, inj []*faultinject.Injector) *Cluster {
	t.Helper()
	hog := shortMovie(t, hogDur)
	movie := shortMovie(t, movieDur)
	cfg := ClusterConfig{
		MSUs:          2,
		BlockSize:     64 * 1024,
		DiskBandwidth: 4000 * units.Kbps,
		NetBandwidth:  20 * units.Mbps,
		CacheBytes:    -1,
		QueueTimeout:  queueTimeout,
		StateDir:      stateDir,
		Replication:   repl,
		Preload: func(m, d int, vol *msufs.Volume) error {
			if m != 0 {
				return nil
			}
			if err := Ingest(vol, "hog", "mpeg1", hog); err != nil {
				return err
			}
			return Ingest(vol, "movie", "mpeg1", movie)
		},
	}
	if inj != nil {
		cfg.MSUDial = func(i int) func(network, address string) (net.Conn, error) {
			return inj[i].Dial(nil)
		}
		cfg.MSUListen = func(i int) func(network, address string) (net.Listener, error) {
			return func(network, address string) (net.Listener, error) {
				ln, err := net.Listen(network, address)
				if err != nil {
					return nil, err
				}
				return inj[i].Listener(ln), nil
			}
		}
	}
	cluster, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster
}

// saturate pins 3000 of msu0's 4000 Kbps disk budget with two hog
// plays and returns their streams.
func saturate(t *testing.T, c *Client) [2]*Stream {
	t.Helper()
	var streams [2]*Stream
	for i, port := range []string{"hog0", "hog1"} {
		recv, err := NewReceiver("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { recv.Close() })
		if err := c.RegisterPort(port, "mpeg1", recv.Addr(), ""); err != nil {
			t.Fatal(err)
		}
		s, err := c.Play("hog", port, false)
		if err != nil {
			t.Fatalf("hog play %d: %v", i, err)
		}
		if s.Info().MSU != "msu0" {
			t.Fatalf("hog play %d placed on %q, want msu0", i, s.Info().MSU)
		}
		streams[i] = s
	}
	return streams
}

// findContent returns the table-of-contents entry for name, or fails.
func findContent(t *testing.T, c *Client, name string) ContentInfo {
	t.Helper()
	items, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Name == name {
			return it
		}
	}
	t.Fatalf("content %q not in table of contents (%d items)", name, len(items))
	return ContentInfo{}
}

// TestReplicateHotContentUnderLoad: two hog streams soak msu0's disk;
// a queued movie play cannot be admitted anywhere, so the Coordinator
// copies movie onto the idle msu1 at the leftover bandwidth, the
// queued play lands on the new replica, and the hogs keep their
// natural delivery pace while the copy runs.
func TestReplicateHotContentUnderLoad(t *testing.T) {
	cluster := replCluster(t, coordinator.ReplicationConfig{}, 0, "", nil)
	admin, err := Dial(cluster.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	hogStart := time.Now()
	hogs := saturate(t, admin)

	// The queued play runs on its own session: a Wait-play blocks its
	// connection until admitted.
	viewer, err := Dial(cluster.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := viewer.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	queued := time.Now()
	stream, err := viewer.Play("movie", "tv", true)
	if err != nil {
		t.Fatalf("queued movie play: %v", err)
	}
	if got := stream.Info().MSU; got != "msu1" {
		t.Fatalf("queued play admitted on %q, want the fresh replica on msu1", got)
	}
	if waited := time.Since(queued); waited < time.Second {
		t.Errorf("movie admitted after only %v — it never waited for the copy", waited)
	}

	// The whole movie arrives from the replica.
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF from the replicated movie within 15s")
	}
	if want := len(shortMovie(t, movieDur)); !recv.WaitCount(want, 3*time.Second) {
		t.Errorf("replica delivered %d packets, want %d", recv.Count(), want)
	}

	var s obs.Snapshot
	await.Until(t, "transfer completion counted", statusHolds(admin, func(snap obs.Snapshot) bool {
		s = snap
		return s.Counter(wire.CounterReplDone) >= 1
	}))
	// The names the harness and /metrics read, counted by the handles
	// beside the plan and commit events.
	if s.Counter(wire.CounterReplPlanned) < 1 || s.Counter(wire.CounterReplDone) != 1 ||
		s.Counter(wire.CounterReplBytes) <= 0 || s.Counter(wire.CounterRequests) <= 0 ||
		s.Gauge(wire.GaugeReplActive) != 0 {
		t.Errorf("status after one committed copy: counters %v gauges %v", s.Counters, s.Gauges)
	}
	info := findContent(t, admin, "movie")
	if len(info.Replicas) != 2 {
		t.Fatalf("movie replicas = %v, want 2 locations", info.Replicas)
	}
	want := map[core.DiskID]bool{
		{MSU: "msu0", N: 0}: true,
		{MSU: "msu1", N: 0}: true,
	}
	for _, d := range info.Replicas {
		if !want[d] {
			t.Errorf("unexpected replica location %v", d)
		}
	}

	// The live hogs were never stalled by the background copy: they
	// reach EOF at their natural pace.
	for i, h := range hogs {
		select {
		case <-h.EOF():
		case <-time.After(hogDur + 12*time.Second):
			t.Fatalf("hog %d never reached EOF — the copy starved live delivery", i)
		}
	}
	elapsed := time.Since(hogStart)
	if elapsed < hogDur-1500*time.Millisecond {
		t.Errorf("%v hogs finished in %v — not paced", hogDur, elapsed)
	}
	if elapsed > hogDur+6*time.Second {
		t.Errorf("%v hogs took %v — the copy stalled live delivery", hogDur, elapsed)
	}
}

// TestReplicateDeleteRaceAbortsCopy: deleting content while its copy
// is in flight aborts the transfer, frees the destination's partial
// blocks, and never commits a location record — not even across a
// Coordinator crash-restart.
func TestReplicateDeleteRaceAbortsCopy(t *testing.T) {
	// 256 Kbps stretches the 375 KB copy to ~12 s so the delete
	// reliably lands mid-transfer.
	cluster := replCluster(t, coordinator.ReplicationConfig{Rate: 256 * units.Kbps},
		15*time.Second, t.TempDir(), nil)
	free0 := cluster.Volume(1, 0).FreeBlocks()
	admin, err := Dial(cluster.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	saturate(t, admin)

	viewer, err := Dial(cluster.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := viewer.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := viewer.Play("movie", "tv", true)
		errCh <- err
	}()

	await.Until(t, "copy in flight", statusHolds(admin, func(s obs.Snapshot) bool {
		return s.Gauge(wire.GaugeReplActive) >= 1
	}))
	await.Until(t, "destination allocated partial blocks", func() bool {
		return cluster.Volume(1, 0).FreeBlocks() < free0
	})

	if err := admin.DeleteContent("movie"); err != nil {
		t.Fatalf("delete during copy: %v", err)
	}

	// The queued play fails (its content is gone), the transfer aborts,
	// and the destination reclaims every partial block.
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("queued play of deleted content was admitted")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("queued play never resolved after the delete")
	}
	await.Until(t, "transfer aborted", statusHolds(admin, func(s obs.Snapshot) bool {
		return s.Gauge(wire.GaugeReplActive) == 0 && s.Counter(wire.CounterReplAborted) >= 1
	}))
	await.Until(t, "partial replica reclaimed on the destination", func() bool {
		return cluster.Volume(1, 0).FreeBlocks() == free0
	})

	items, err := admin.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Name == "movie" {
			t.Fatalf("deleted movie still listed: %+v", it)
		}
	}

	// Crash-restart: the journal must never have seen a location for
	// the aborted copy.
	if err := cluster.RestartCoordinator(); err != nil {
		t.Fatal(err)
	}
	await.Until(t, "a status answer from the restarted Coordinator", statusHolds(admin, nil))
	items, err = admin.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Name == "movie" {
			t.Fatalf("restarted Coordinator resurrected deleted movie: %+v", it)
		}
	}
}

// replicateCrashTest drives a copy mid-flight, crashes the MSU picked
// by victim, and asserts the invariant shared by both crash
// directions: the transfer aborts, the destination's partial blocks
// are reclaimed, and after a Coordinator crash-restart the catalog
// shows exactly the original replica — no orphaned location record.
func replicateCrashTest(t *testing.T, victim int) (*Cluster, []*faultinject.Injector, *Client) {
	t.Helper()
	inj := []*faultinject.Injector{
		faultinject.New(faultinject.Options{}),
		faultinject.New(faultinject.Options{}),
	}
	cluster := replCluster(t, coordinator.ReplicationConfig{Rate: 256 * units.Kbps},
		5*time.Second, t.TempDir(), inj)
	free0 := cluster.Volume(1, 0).FreeBlocks()
	admin, err := Dial(cluster.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	saturate(t, admin)

	viewer, err := Dial(cluster.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { viewer.Close() })
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	if err := viewer.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := viewer.Play("movie", "tv", true)
		errCh <- err
	}()

	await.Until(t, "copy in flight", statusHolds(admin, func(s obs.Snapshot) bool {
		return s.Gauge(wire.GaugeReplActive) >= 1
	}))
	await.Until(t, "destination allocated partial blocks", func() bool {
		return cluster.Volume(1, 0).FreeBlocks() < free0
	})

	crash(inj[victim])

	// The Coordinator notices the dead MSU and aborts the transfer; the
	// destination (told to abort, or alone with its failing pulls)
	// reclaims the partial replica on its own.
	await.Until(t, "transfer aborted after crash", statusHolds(admin, func(s obs.Snapshot) bool {
		return s.Gauge(wire.GaugeReplActive) == 0 && s.Counter(wire.CounterReplAborted) >= 1
	}))
	await.Until(t, "partial replica reclaimed on the destination", func() bool {
		return cluster.Volume(1, 0).FreeBlocks() == free0
	})
	// The queued play resolves with an error: the copy never committed,
	// so no second replica exists to admit it.
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("queued play admitted although the copy crashed")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("queued play never resolved after the crash")
	}

	// Crash-restart the Coordinator: the recovered catalog shows only
	// the original copy — the half-finished replica left no record.
	if err := cluster.RestartCoordinator(); err != nil {
		t.Fatal(err)
	}
	await.Until(t, "a status answer from the restarted Coordinator", statusHolds(admin, nil))
	info := findContent(t, admin, "movie")
	if len(info.Replicas) != 1 || info.Replicas[0] != (core.DiskID{MSU: "msu0", N: 0}) {
		t.Fatalf("after restart movie replicas = %v, want exactly [msu0/disk0]", info.Replicas)
	}
	return cluster, inj, admin
}

// TestFaultReplicateSourceCrashMidCopy: the source MSU dies while
// serving a copy. Partition semantics cover inbound too, so the
// destination's resume dials fail and it discards the partial replica.
// After the source returns, playback of the surviving copy works.
func TestFaultReplicateSourceCrashMidCopy(t *testing.T) {
	cluster, inj, admin := replicateCrashTest(t, 0)

	inj[0].Partition(false)
	await.Until(t, "both MSUs to re-register", msusAvailable(admin, 2))
	info := findContent(t, admin, "movie")
	if len(info.Replicas) != 1 {
		t.Fatalf("healed source re-registered with ghost replicas: %v", info.Replicas)
	}
	playMovieAfterRecovery(t, cluster)
}

// TestFaultReplicateDestMSUCrashMidCopy: the destination MSU dies
// while pulling a copy. Its retries fail through the partition, it
// discards the partial blocks itself, and when it re-registers it
// declares nothing — the partial never became content.
func TestFaultReplicateDestMSUCrashMidCopy(t *testing.T) {
	cluster, inj, admin := replicateCrashTest(t, 1)

	inj[1].Partition(false)
	await.Until(t, "both MSUs to re-register", msusAvailable(admin, 2))
	info := findContent(t, admin, "movie")
	if len(info.Replicas) != 1 || info.Replicas[0] != (core.DiskID{MSU: "msu0", N: 0}) {
		t.Fatalf("healed destination re-registered a partial replica: %v", info.Replicas)
	}
	playMovieAfterRecovery(t, cluster)
}

// playMovieAfterRecovery waits out the hog load and plays movie on a
// fresh session, proving the cluster still serves the surviving copy.
func playMovieAfterRecovery(t *testing.T, cluster *Cluster) {
	t.Helper()
	c, err := Dial(cluster.Addr(), "carol")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	// The hogs from the load phase may still hold bandwidth (they run
	// hogDur from test start); retry until the play is admitted.
	var stream *Stream
	await.Until(t, "movie admitted after recovery", func() bool {
		stream, err = c.Play("movie", "tv", false)
		return err == nil
	})
	if !recv.WaitCount(3, 10*time.Second) {
		t.Fatal("no packets from the recovered cluster")
	}
	if err := stream.Quit(); err != nil {
		t.Fatal(err)
	}
}

// downHolderCluster starts three MSUs: movie on msu0 and msu1, hog on
// msu1 alone, msu2 empty. A disk admits one 1500 Kbps play, and the 1400
// Kbps it leaves idle carries a copy. dial opens a session with an mpeg1
// port "tv" on a capturing receiver.
func downHolderCluster(t *testing.T) (inj []*faultinject.Injector, movie []Packet, dial func(user string) (*Client, *Receiver)) {
	t.Helper()
	hog, movie := shortMovie(t, hogDur), shortMovie(t, movieDur)
	inj = make([]*faultinject.Injector, 3)
	for i := range inj {
		inj[i] = faultinject.New(faultinject.Options{})
	}
	cluster, err := StartCluster(ClusterConfig{
		MSUs:          3,
		BlockSize:     64 * 1024,
		DiskBandwidth: 2900 * units.Kbps,
		CacheBytes:    -1,
		// Past the copy's few seconds: a play no copy serves fails here.
		QueueTimeout: 15 * time.Second,
		MSUDial: func(i int) func(network, address string) (net.Conn, error) {
			return inj[i].Dial(nil)
		},
		Preload: func(m, d int, vol *msufs.Volume) error {
			if m == 1 {
				if err := Ingest(vol, "hog", "mpeg1", hog); err != nil {
					return err
				}
			}
			if m < 2 {
				return Ingest(vol, "movie", "mpeg1", movie)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return inj, movie, func(user string) (*Client, *Receiver) {
		c, err := Dial(cluster.Addr(), user)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		recv, err := NewReceiver("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { recv.Close() })
		recv.SetCapture(true)
		if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
			t.Fatal(err)
		}
		return c, recv
	}
}

// TestFaultCopyReplacesDownHolder: a copy on a down MSU is no copy.
// In downHolderCluster, with msu0 crashed and msu1's disk budget taken
// by a hog play, a waiting movie play plans a copy onto msu2 and is
// admitted there once the copy commits. With msu1 crashed too, a play of
// movie delivers every byte from msu2.
func TestFaultCopyReplacesDownHolder(t *testing.T) {
	inj, movie, dial := downHolderCluster(t)
	admin, _ := dial("alice")
	crash(inj[0])
	await.Until(t, "msu0 seen down", msusAvailable(admin, 2))
	if s, err := admin.Play("hog", "tv", false); err != nil || s.Info().MSU != "msu1" {
		t.Fatalf("hog play: %v, want it on msu1", err)
	}
	viewer, _ := dial("bob")
	queued, err := viewer.Play("movie", "tv", true)
	if err != nil {
		t.Fatalf("waiting movie play: %v", err)
	}
	if got := queued.Info().MSU; got != "msu2" {
		t.Fatalf("the waiting play was admitted on %q, want msu2, where its copy landed", got)
	}
	select {
	case <-queued.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF from the copy on msu2 within 15s")
	}
	if err := queued.Quit(); err != nil {
		t.Fatal(err)
	}

	crash(inj[1])
	await.Until(t, "msu1 seen down", msusAvailable(admin, 1))
	last, recv := dial("carol")
	stream, err := last.Play("movie", "tv", true)
	if err != nil {
		t.Fatalf("movie play with msu0 and msu1 down: %v", err)
	}
	if got := stream.Info().MSU; got != "msu2" {
		t.Fatalf("movie played from %q, want msu2", got)
	}
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF from msu2 within 15s")
	}
	recv.WaitCount(len(movie), 2*time.Second)
	got := recv.Packets()
	if len(got) != len(movie) {
		t.Fatalf("msu2 delivered %d packets, want %d", len(got), len(movie))
	}
	for i := range got {
		if string(got[i].Payload) != string(movie[i].Payload) {
			t.Fatalf("packet %d from msu2 differs from the title ingested", i)
		}
	}
}

// TestFaultOrphanMigratesOntoCopy: an orphaned group earns a copy as a
// fresh play does. In downHolderCluster a viewer plays movie on msu0 and
// a hog takes msu1's disk budget. When msu0 crashes, the group's one
// live holder has no room, so the group waits while movie is copied onto
// msu2, then migrates there, and the viewer's receiver gets the rest of
// the title byte for byte.
func TestFaultOrphanMigratesOntoCopy(t *testing.T) {
	inj, movie, dial := downHolderCluster(t)
	viewer, recv := dial("bob")
	stream, err := viewer.Play("movie", "tv", false)
	if err != nil || stream.Info().MSU != "msu0" {
		t.Fatalf("movie play: %v, want it on msu0, the first holder", err)
	}
	admin, _ := dial("alice")
	if s, err := admin.Play("hog", "tv", false); err != nil || s.Info().MSU != "msu1" {
		t.Fatalf("hog play: %v, want it on msu1", err)
	}
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("the movie never started on msu0")
	}
	crash(inj[0])
	select {
	case m := <-stream.Migrated():
		if m.MSU != "msu2" {
			t.Fatalf("migrated to %q, want msu2, where the copy landed", m.MSU)
		}
	case l := <-stream.Lost():
		t.Fatalf("the orphaned group was lost (%q) instead of earning a copy", l.Reason)
	case <-time.After(15 * time.Second):
		t.Fatal("no migration within 15s of msu0's crash")
	}
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF from msu2 within 15s")
	}
	// Every packet is one of the title's, byte for byte, and the title's
	// last one, which only msu2 could send, arrived.
	want := make(map[string]bool, len(movie))
	for _, p := range movie {
		want[string(p.Payload)] = true
	}
	last := string(movie[len(movie)-1].Payload)
	await.Until(t, "the title's last packet", func() bool {
		for _, p := range recv.Packets() {
			if string(p.Payload) == last {
				return true
			}
		}
		return false
	})
	for i, p := range recv.Packets() {
		if !want[string(p.Payload)] {
			t.Fatalf("packet %d (%d bytes) is none of the title's", i, len(p.Payload))
		}
	}
}
