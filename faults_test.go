package calliope

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/blockdev"
	"calliope/internal/faultinject"
	"calliope/internal/msu"
	"calliope/internal/msufs"
	"calliope/internal/obs"
	"calliope/internal/wire"
)

// faultCluster starts an n-MSU cluster with "movie" preloaded on every
// disk and one fault injector interposed per MSU, so a test can
// "crash" an MSU by severing everything it has dialed. A non-empty
// stateDir gives the Coordinator a durable administrative database,
// enabling Cluster.RestartCoordinator.
func faultCluster(t *testing.T, n int, dur, queueTimeout time.Duration, stateDir string) (*Cluster, []*faultinject.Injector) {
	t.Helper()
	return faultClusterOn(t, n, dur, queueTimeout, stateDir, nil)
}

// faultClusterOn is faultCluster with every disk's device wrapped by wrap
// (nil for none) before it is formatted.
func faultClusterOn(t *testing.T, n int, dur, queueTimeout time.Duration, stateDir string, wrap func(msuIdx, diskIdx int, dev blockdev.BlockDevice) blockdev.BlockDevice) (*Cluster, []*faultinject.Injector) {
	t.Helper()
	pkts := shortMovie(t, dur)
	inj := make([]*faultinject.Injector, n)
	for i := range inj {
		inj[i] = faultinject.New(faultinject.Options{})
	}
	cluster, err := StartCluster(ClusterConfig{
		MSUs:         n,
		BlockSize:    64 * 1024,
		QueueTimeout: queueTimeout,
		StateDir:     stateDir,
		WrapDevice:   wrap,
		MSUDial: func(i int) func(network, address string) (net.Conn, error) {
			return inj[i].Dial(nil)
		},
		Preload: func(m, d int, vol *msufs.Volume) error {
			return Ingest(vol, "movie", "mpeg1", pkts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster, inj
}

// crash severs every connection an MSU holds and keeps its redials
// failing — an abrupt process death, unlike MSU.Close's orderly
// shutdown (which ends streams before disconnecting).
func crash(in *faultinject.Injector) {
	in.Partition(true)
	in.CutAll()
}

// TestFaultMSUCrashMigratesStream: an MSU dies mid-delivery; the
// Coordinator re-dispatches the stream group onto the other MSU
// holding the content, the replacement MSU opens a fresh control
// connection, and delivery resumes — the client never hangs (§2.2).
func TestFaultMSUCrashMigratesStream(t *testing.T) {
	cluster, inj := faultCluster(t, 2, 10*time.Second, 0, "")
	c, err := Dial(cluster.Addr(), "alice")
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
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Info().MSU != "msu0" {
		t.Fatalf("play placed on %q, want msu0, the first holder in MSU id order", stream.Info().MSU)
	}
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("stream never started")
	}

	crash(inj[0])

	select {
	case m := <-stream.Migrated():
		if m.MSU != "msu1" {
			t.Fatalf("migrated to %q, want msu1", m.MSU)
		}
		// The handle follows the group: Info names the new MSU and the
		// streams the notice named.
		if info := stream.Info(); info.MSU != m.MSU || !slices.Equal(info.Streams, m.Streams) {
			t.Fatalf("Info after the migration names %q %+v, want %q %+v", info.MSU, info.Streams, m.MSU, m.Streams)
		}
	case l := <-stream.Lost():
		t.Fatalf("stream lost (%q) with a live replica available", l.Reason)
	case <-time.After(10 * time.Second):
		t.Fatal("no migration notice after MSU crash")
	}
	// The dead MSU's control connection broke too.
	select {
	case <-stream.Down():
	case <-time.After(5 * time.Second):
		t.Fatal("old control connection never reported down")
	}
	// Delivery resumes from the replacement MSU.
	n := recv.Count()
	if !recv.WaitCount(n+3, 10*time.Second) {
		t.Fatal("no data from the replacement MSU")
	}
	// VCR control works against the replacement connection.
	if err := stream.Quit(); err != nil {
		t.Fatalf("quit after migration: %v", err)
	}
	if err := c.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFaultStreamLostWithoutReplica: with no second copy anywhere, the
// Coordinator queues the orphaned group until QueueTimeout, then tells
// the client stream-lost — an explicit verdict, never a silent hang.
func TestFaultStreamLostWithoutReplica(t *testing.T) {
	cluster, inj := faultCluster(t, 1, 10*time.Second, 300*time.Millisecond, "")
	c, err := Dial(cluster.Addr(), "alice")
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
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("stream never started")
	}

	crash(inj[0])

	select {
	case l := <-stream.Lost():
		if l.Reason == "" {
			t.Fatal("stream-lost without a reason")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no stream-lost after unrecoverable MSU crash")
	}
	if err := c.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// statusHolds reports whether the client gets a status answer whose
// snapshot satisfies pred (nil: any answer). The client may still be
// noticing a restarted Coordinator and reconnecting; any answer after
// RestartCoordinator comes from the new one, since the old one finished
// shutting down before RestartCoordinator returned.
func statusHolds(c *Client, pred func(obs.Snapshot) bool) func() bool {
	return func() bool {
		st, err := c.StatusV2()
		return err == nil && (pred == nil || pred(st.Snapshot))
	}
}

// msusAvailable reports whether want MSUs have (re-)registered.
func msusAvailable(c *Client, want int64) func() bool {
	return statusHolds(c, func(s obs.Snapshot) bool { return s.Gauge(wire.GaugeMSUsAvailable) == want })
}

// cursor is the newest sequence number on the Coordinator's timeline:
// taken before an action, it is where awaitEvent looks for what the
// action causes. A cursor does not survive RestartCoordinator; after a
// restart, wait on state or take a new one.
func cursor(t *testing.T, c *Client) uint64 {
	t.Helper()
	page, err := c.Events(wire.EventsRequest{Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	return page.Next
}

// awaitEvent long-polls the timeline past since for an event of want's
// kind, about want's MSU and content where those are set.
func awaitEvent(t *testing.T, c *Client, since uint64, want obs.Event) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), await.Deadline)
	defer cancel()
	for {
		page, err := c.EventsContext(ctx, wire.EventsRequest{Since: since, WaitMillis: int(await.Deadline / time.Millisecond)})
		if err != nil {
			t.Fatalf("waiting for a %s event (%s %s): %v", want.Kind, want.MSU, want.Content, err)
		}
		for _, ev := range page.Events {
			if ev.Kind == want.Kind && (want.MSU == "" || ev.MSU == want.MSU) && (want.Content == "" || ev.Content == want.Content) {
				return
			}
		}
		since = page.Next
	}
}

// TestFaultCoordinatorRestartMidPlay: the Coordinator is killed while
// a stream plays and restarts from its durable administrative
// database. Delivery never stops (the MSU→client data plane does not
// pass through the Coordinator), the restarted instance knows the full
// content catalog and replica locations before any MSU has
// re-registered, and once MSUs re-register and the client reconnects a
// new play succeeds — with stream and group IDs strictly above
// everything issued before the crash.
func TestFaultCoordinatorRestartMidPlay(t *testing.T) {
	cluster, inj := faultCluster(t, 2, 10*time.Second, 0, t.TempDir())
	c, err := Dial(cluster.Addr(), "alice")
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
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("stream never started")
	}

	// Hold the MSUs' redials off so the restarted Coordinator is
	// observed before any re-registration. Existing connections stay up
	// (this is a Coordinator crash, not an MSU crash).
	for _, in := range inj {
		in.Partition(true)
	}
	if err := cluster.RestartCoordinator(); err != nil {
		t.Fatal(err)
	}

	// Delivery continues across the Coordinator outage.
	n := recv.Count()
	if !recv.WaitCount(n+3, 5*time.Second) {
		t.Fatal("delivery stalled during Coordinator restart")
	}
	// The client reconnects (replaying its port registrations) and sees
	// the recovered catalog — replica locations intact — while zero
	// MSUs have managed to re-register.
	var st obs.Snapshot
	await.Until(t, "a status answer from the restarted Coordinator", statusHolds(c, func(s obs.Snapshot) bool { st = s; return true }))
	if n := st.Gauge(wire.GaugeMSUsAvailable); n != 0 {
		t.Fatalf("msus_available = %d before healing the partition, want 0", n)
	}
	contents, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	if len(contents) != 1 || contents[0].Name != "movie" {
		t.Fatalf("catalog after restart = %+v, want just movie", contents)
	}
	if got := fmt.Sprint(contents[0].Replicas); got != "[msu0/disk0 msu1/disk0]" {
		t.Fatalf("replicas after restart = %s, want both MSUs' locations", got)
	}

	// Heal: MSUs re-register with their content declarations.
	for _, in := range inj {
		in.Partition(false)
	}
	await.Until(t, "both MSUs to re-register", msusAvailable(c, 2))

	play2, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatalf("play after Coordinator restart: %v", err)
	}
	old, fresh := stream.Info(), play2.Info()
	if fresh.Group <= old.Group {
		t.Fatalf("group ID reissued across restart: %d after %d", fresh.Group, old.Group)
	}
	if fresh.Streams[0].Stream <= old.Streams[0].Stream {
		t.Fatalf("stream ID reissued across restart: %d after %d", fresh.Streams[0].Stream, old.Streams[0].Stream)
	}
	// Both streams answer VCR control: the old one on its surviving
	// direct MSU connection, the new one normally.
	if err := play2.Quit(); err != nil {
		t.Fatalf("quit new stream: %v", err)
	}
	if err := stream.Quit(); err != nil {
		t.Fatalf("quit pre-restart stream: %v", err)
	}
	if err := c.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFaultCoordinatorRestartMidRecord: the Coordinator is killed
// while a recording is in flight. The restarted instance finds the
// recording journaled in its administrative database and reports it
// lost; the MSU, which kept recording throughout, re-registers and
// commits it across the restart (the file on disk is ground truth), so
// the content still lands in the catalog. A fresh recording afterwards
// gets non-colliding IDs.
func TestFaultCoordinatorRestartMidRecord(t *testing.T) {
	cluster, inj := faultCluster(t, 1, 10*time.Second, 0, t.TempDir())
	c, err := Dial(cluster.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("cam", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Record("take", "mpeg1", "cam", time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := rec.Sink("mpeg1")
	conn, err := net.Dial("udp", data)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			pkt := make([]byte, 1024)
			pkt[0], pkt[1] = byte(i), byte(i>>8)
			if _, err := conn.Write(pkt); err != nil {
				t.Fatal(err)
			}
			time.Sleep(300 * time.Microsecond) // the source's packet spacing: a burst of 1 KB packets would overflow the recorder's socket buffer
		}
	}
	send(100)

	inj[0].Partition(true)
	if err := cluster.RestartCoordinator(); err != nil {
		t.Fatal(err)
	}
	// The in-flight recording was journaled before its ack, so the
	// restarted Coordinator reports it lost; it is not in the catalog.
	var st obs.Snapshot
	await.Until(t, "a status answer from the restarted Coordinator", statusHolds(c, func(s obs.Snapshot) bool { st = s; return true }))
	if n := st.Gauge(wire.GaugeLostRecs); n != 1 {
		t.Fatalf("lost_recordings = %d after mid-record crash, want 1", n)
	}
	contents, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range contents {
		if info.Name == "take" {
			t.Fatal("uncommitted recording appeared in the restarted catalog")
		}
	}

	// The MSU recorded through the outage. Re-register it, keep
	// feeding, then stop: the MSU commits the recording to the
	// restarted Coordinator, which admits it even though it never
	// dispatched the stream.
	inj[0].Partition(false)
	await.Until(t, "the MSU to re-register", msusAvailable(c, 1))
	// The MSU's hello declared what it holds, and a file still being
	// recorded is not content: the catalog must not list it yet.
	contents, err = c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range contents {
		if info.Name == "take" {
			t.Fatalf("the re-registered MSU declared a recording still under way: %+v", info)
		}
	}
	send(50)
	since := cursor(t, c)
	if err := rec.Stop(); err != nil {
		t.Fatalf("stop across Coordinator restart: %v", err)
	}
	awaitEvent(t, c, since, obs.Event{Kind: obs.EvRecCommit, Content: "take"})
	info := findContent(t, c, "take")
	onDisk, err := cluster.Volume(0, 0).Stat("take")
	if err != nil {
		t.Fatal(err)
	}
	if info.Length <= 0 || int64(info.Size) != onDisk.Size || !onDisk.Committed {
		t.Fatalf("catalog lists %+v for a committed file of %d bytes (committed=%v)", info, onDisk.Size, onDisk.Committed)
	}
	got, err := msu.ReadBack(msufs.NewStore(cluster.Volume(0, 0)), "take")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) <= 100 {
		t.Fatalf("the recording holds %d packets: nothing of the second burst", len(got))
	}

	// Fresh recordings get IDs strictly above the pre-crash ones.
	rec2, err := c.Record("take2", "mpeg1", "cam", time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Info().Group <= rec.Info().Group {
		t.Fatalf("group ID reissued across restart: %d after %d", rec2.Info().Group, rec.Info().Group)
	}
	if rec2.Info().Streams[0].Stream <= rec.Info().Streams[0].Stream {
		t.Fatalf("stream ID reissued across restart: %d after %d",
			rec2.Info().Streams[0].Stream, rec.Info().Streams[0].Stream)
	}
	if err := rec2.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDiskReadErrorEndsStream: a dying disk region under an
// active play surfaces as an immediate EOF to the client instead of a
// stalled stream (the MSU's disk goroutine reports the error and ends
// the stream).
func TestFaultDiskReadErrorEndsStream(t *testing.T) {
	pkts := shortMovie(t, 15*time.Second)
	var dev *faultinject.Device
	cluster, err := StartCluster(ClusterConfig{
		BlockSize: 64 * 1024,
		WrapDevice: func(m, d int, b blockdev.BlockDevice) blockdev.BlockDevice {
			w, werr := faultinject.NewDevice(b, 64*1024)
			if werr != nil {
				t.Fatal(werr)
			}
			dev = w
			return w
		},
		Preload: func(m, d int, vol *msufs.Volume) error {
			return Ingest(vol, "movie", "mpeg1", pkts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)

	c, err := Dial(cluster.Addr(), "alice")
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
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("stream never started")
	}

	dev.FailReads(0, 1<<30) // the whole disk goes bad

	// Natural EOF would take ~15 s; the injected fault must end the
	// stream far sooner.
	select {
	case <-stream.EOF():
	case <-time.After(10 * time.Second):
		t.Fatal("no EOF after disk read faults — stream hung")
	}
	if err := stream.Quit(); err != nil {
		t.Fatalf("quit after device fault: %v", err)
	}
	if err := c.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
