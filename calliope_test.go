package calliope

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/obs"
	"calliope/internal/protocol"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// shortMovie builds a small CBR stream: ~2 s of "video" in 1 KB
// packets at 1.5 Mbit/s — long enough to watch pacing, short enough
// for tests.
func shortMovie(t *testing.T, dur time.Duration) []Packet {
	t.Helper()
	pkts, err := media.GenerateCBR(media.CBRConfig{
		Rate:       1500 * units.Kbps,
		PacketSize: 1024,
		FPS:        30,
		GOP:        15,
		Duration:   dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// movieCluster starts a 1-MSU cluster preloaded with "movie" and its
// fast-scan companions.
func movieCluster(t *testing.T, dur time.Duration) *Cluster {
	t.Helper()
	pkts := shortMovie(t, dur)
	cluster, err := StartCluster(ClusterConfig{
		BlockSize: 64 * 1024,
		Preload: func(m, d int, vol *msufs.Volume) error {
			if err := Ingest(vol, "movie", "mpeg1", pkts); err != nil {
				return err
			}
			return IngestFast(vol, "movie", "mpeg1", pkts, 15)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster
}

func TestPlayEndToEnd(t *testing.T) {
	cluster := movieCluster(t, 2*time.Second)
	src := shortMovie(t, 2*time.Second)

	c, err := Dial(cluster.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	items, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Name != "movie" || items[0].Type != "mpeg1" || !items[0].HasFast {
		t.Fatalf("table of contents = %+v", items)
	}
	if items[0].Length < 1900*time.Millisecond {
		t.Fatalf("content length = %v", items[0].Length)
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

	start := time.Now()
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Length() < 1900*time.Millisecond {
		t.Fatalf("stream length = %v", stream.Length())
	}

	// Wait for EOF.
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF within 15s")
	}
	elapsed := time.Since(start)
	// On a loaded host the receiver goroutine can trail the socket
	// buffer at EOF; give it a bounded moment to drain.
	recv.WaitCount(len(src), 2*time.Second)

	// All packets arrived, in order, with the original payloads.
	got := recv.Packets()
	if len(got) != len(src) {
		t.Fatalf("received %d packets, want %d", len(got), len(src))
	}
	for i := range got {
		if string(got[i].Payload) != string(src[i].Payload) {
			t.Fatalf("packet %d payload mismatch", i)
		}
	}
	// Real-time pacing: the 2s stream takes ~2s, not instantaneous.
	if elapsed < 1500*time.Millisecond {
		t.Errorf("2s stream delivered in %v — not paced", elapsed)
	}
	if elapsed > 6*time.Second {
		t.Errorf("2s stream took %v — stalled", elapsed)
	}

	if err := stream.Quit(); err != nil {
		t.Fatal(err)
	}
	// The Coordinator frees the stream.
	if err := c.WaitStreamsIdle(3 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestVCRPauseResumeSeek(t *testing.T) {
	cluster := movieCluster(t, 3*time.Second)
	c, err := Dial(cluster.Addr(), "bob")
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

	if !recv.WaitCount(10, 5*time.Second) {
		t.Fatal("no packets before pause")
	}
	ack, err := stream.Pause()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Pos <= 0 || ack.Pos > 3*time.Second {
		t.Fatalf("pause position %v", ack.Pos)
	}
	// While paused, delivery stops.
	n1 := recv.Count()
	time.Sleep(300 * time.Millisecond) // a negative check: the window a paused stream must send nothing in
	n2 := recv.Count()
	if n2 > n1+2 { // allow in-flight straggler
		t.Fatalf("packets kept flowing while paused: %d → %d", n1, n2)
	}

	if _, err := stream.Resume(); err != nil {
		t.Fatal(err)
	}
	if !recv.WaitCount(n2+10, 5*time.Second) {
		t.Fatal("no packets after resume")
	}

	// Seek near the end; EOF should follow quickly.
	if _, err := stream.Seek(2900 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	select {
	case eof := <-stream.EOF():
		if eof.Pos < 2500*time.Millisecond {
			t.Fatalf("EOF at %v after seek to 2.9s", eof.Pos)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no EOF after seek near end")
	}
}

func TestFastForwardUsesCompanionFile(t *testing.T) {
	cluster := movieCluster(t, 3*time.Second)
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
	recv.SetCapture(true)
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Quit() //nolint:errcheck

	if !recv.WaitCount(5, 5*time.Second) {
		t.Fatal("no packets at normal rate")
	}
	ack, err := stream.FastForward()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Speed != "fast-forward" {
		t.Fatalf("speed = %q", ack.Speed)
	}
	// The 3s movie at 15x lasts 200ms in the fast file: EOF arrives
	// promptly and position advances to the end.
	select {
	case <-stream.EOF():
	case <-time.After(5 * time.Second):
		t.Fatal("no EOF in fast-forward")
	}
	// The fast-forward file carries only I-frames.
	sawI := 0
	for _, p := range recv.Packets() {
		h, err := media.ParseHeader(p.Payload)
		if err == nil && h.Type == media.IFrame {
			sawI++
		}
	}
	if sawI == 0 {
		t.Fatal("no I-frame packets seen in fast-forward")
	}

	// Back to normal play: position maps back into the normal file.
	ack, err = stream.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Speed != "normal" {
		t.Fatalf("speed after resume = %q", ack.Speed)
	}
}

func TestRecordThenPlayRTP(t *testing.T) {
	cluster := movieCluster(t, time.Second)
	c, err := Dial(cluster.Addr(), "dave")
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
	if err := c.RegisterPort("cam", "rtp-video", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}

	rec, err := c.Record("talk", "rtp-video", "cam", 30*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	data, ctrl := rec.Sink("rtp-video")
	if data == "" || ctrl == "" {
		t.Fatalf("sinks = %q %q (rtp needs data and control)", data, ctrl)
	}

	// Blast 90 RTP packets with 90 kHz timestamps 33 ms apart. The MSU
	// derives the delivery schedule from the timestamps, so arrival
	// pacing does not matter (§2.3.2).
	dataConn, err := net.Dial("udp", data)
	if err != nil {
		t.Fatal(err)
	}
	defer dataConn.Close()
	var sent [][]byte
	for i := 0; i < 90; i++ {
		pkt := protocol.EncodeRTP(protocol.RTPHeader{
			Seq: uint16(i), Timestamp: uint32(1000 + i*3000), SSRC: 7,
		}, []byte{byte(i), 0xEE})
		if _, err := dataConn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, pkt)
		time.Sleep(500 * time.Microsecond) // the source's packet spacing, ~66x real time: the length must come from the timestamps
	}
	// Interleave a control message too.
	ctrlConn, err := net.Dial("udp", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlConn.Close()
	if _, err := ctrlConn.Write([]byte("RTCP-SR")); err != nil {
		t.Fatal(err)
	}
	since := cursor(t, c)
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}

	// The recording appears in the table of contents with ~3s length
	// (90 frames × 33ms from timestamps, NOT the ~45ms arrival span).
	awaitEvent(t, c, since, obs.Event{Kind: obs.EvRecCommit, Content: "talk"})
	info := findContent(t, c, "talk")
	wantLen := 89 * 3000 * time.Second / 90000
	if info.Length < wantLen-50*time.Millisecond || info.Length > wantLen+50*time.Millisecond {
		t.Fatalf("recorded length %v, want ~%v (timestamp-derived)", info.Length, wantLen)
	}

	// Play it back; data packets return on the data port, the control
	// message on the control port.
	ctrlRecv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrlRecv.Close()
	ctrlRecv.SetCapture(true)
	playRecv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer playRecv.Close()
	playRecv.SetCapture(true)
	if err := c.RegisterPort("tv", "rtp-video", playRecv.Addr(), ctrlRecv.Addr()); err != nil {
		t.Fatal(err)
	}
	stream, err := c.Play("talk", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF on playback")
	}
	playRecv.WaitCount(len(sent), 2*time.Second) // bounded drain of the sink
	got := playRecv.Packets()
	if len(got) != len(sent) {
		t.Fatalf("replayed %d packets, want %d", len(got), len(sent))
	}
	for i := range got {
		if string(got[i].Payload) != string(sent[i]) {
			t.Fatalf("replayed packet %d differs", i)
		}
	}
	// Playback is re-paced to the timestamp schedule (~3s).
	if span := playRecv.Span(); span < 2*time.Second {
		t.Errorf("replay span %v — schedule not reconstructed from timestamps", span)
	}
	if !ctrlRecv.WaitCount(1, 3*time.Second) {
		t.Fatal("control message not replayed on the control port")
	}
	if string(ctrlRecv.Packets()[0].Payload) != "RTCP-SR" {
		t.Fatal("control payload mangled")
	}
	if err := stream.Quit(); err != nil {
		t.Fatal(err)
	}
}

func TestSeminarCompositeGroup(t *testing.T) {
	cluster := movieCluster(t, time.Second)
	c, err := Dial(cluster.Addr(), "erin")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Register component ports, then the composite Seminar port.
	vRecv, _ := NewReceiver("")
	defer vRecv.Close()
	aRecv, _ := NewReceiver("")
	defer aRecv.Close()
	if err := c.RegisterPort("v", "rtp-video", vRecv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPort("a", "vat-audio", aRecv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterCompositePort("sem", "seminar", map[string]string{
		"rtp-video": "v", "vat-audio": "a",
	}); err != nil {
		t.Fatal(err)
	}

	// Record a seminar: both components through one group.
	rec, err := c.Record("talk1", "seminar", "sem", time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sinks()) != 2 {
		t.Fatalf("sinks = %+v", rec.Sinks())
	}
	vData, _ := rec.Sink("rtp-video")
	aData, _ := rec.Sink("vat-audio")
	vConn, _ := net.Dial("udp", vData)
	defer vConn.Close()
	aConn, _ := net.Dial("udp", aData)
	defer aConn.Close()
	for i := 0; i < 30; i++ {
		vConn.Write(protocol.EncodeRTP(protocol.RTPHeader{Timestamp: uint32(i * 3000)}, []byte{1, byte(i)})) //nolint:errcheck
		aConn.Write(protocol.EncodeVAT(protocol.VATHeader{Timestamp: uint32(i * 160)}, []byte{2, byte(i)}))  //nolint:errcheck
	}
	since := cursor(t, c)
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}

	// The composite parent and both children are in the table: the
	// parent commits with the last of them.
	awaitEvent(t, c, since, obs.Event{Kind: obs.EvRecCommit, Content: "talk1"})
	items, _ := c.ListContent()
	names := map[string]bool{}
	for _, it := range items {
		names[it.Name] = true
	}
	if !names["talk1"] || !names["talk1/rtp-video"] || !names["talk1/vat-audio"] {
		t.Fatalf("composite content incomplete: %v", names)
	}

	// Play the seminar through the composite port: one group, both
	// receivers get their streams, one VCR command drives both.
	stream, err := c.Play("talk1", "sem", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Info().Streams) != 2 {
		t.Fatalf("group members = %+v", stream.Info().Streams)
	}
	if !vRecv.WaitCount(5, 5*time.Second) || !aRecv.WaitCount(5, 5*time.Second) {
		t.Fatal("component streams not delivering")
	}
	if _, err := stream.Pause(); err != nil {
		t.Fatal(err)
	}
	nv, na := vRecv.Count(), aRecv.Count()
	time.Sleep(200 * time.Millisecond) // a negative check: the window a paused group must send nothing in
	if vRecv.Count() > nv+2 || aRecv.Count() > na+2 {
		t.Fatal("pause did not stop both group members")
	}
	since = cursor(t, c)
	if err := stream.Quit(); err != nil {
		t.Fatal(err)
	}

	// Once both members have ended, the seminar deletes whole: its
	// children's replicas leave the MSU and all three entries the table.
	for _, child := range []string{"talk1/rtp-video", "talk1/vat-audio"} {
		awaitEvent(t, c, since, obs.Event{Kind: obs.EvEOF, Content: child})
	}
	if err := c.DeleteContent("talk1"); err != nil {
		t.Fatal(err)
	}
	items, err = c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if strings.HasPrefix(it.Name, "talk1") {
			t.Errorf("%q is still listed after the delete", it.Name)
		}
	}
	for _, fi := range cluster.Volume(0, 0).List() {
		if strings.HasPrefix(fi.Name, "talk1") {
			t.Errorf("file %q survived the delete", fi.Name)
		}
	}
}

func TestAdmissionControlAndQueueing(t *testing.T) {
	// A single disk advertising 3 Mbit/s admits two 1.5 Mbit/s MPEG
	// streams; the third fails, or queues until one quits.
	pkts := shortMovie(t, 2*time.Second)
	cluster, err := StartCluster(ClusterConfig{
		BlockSize:     64 * 1024,
		DiskBandwidth: 3000 * units.Kbps,
		QueueTimeout:  10 * time.Second,
		Preload: func(m, d int, vol *msufs.Volume) error {
			return Ingest(vol, "movie", "mpeg1", pkts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	c, err := Dial(cluster.Addr(), "frank")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var streams []*Stream
	for i := 0; i < 2; i++ {
		recv, err := NewReceiver("")
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		port := "tv" + string(rune('0'+i))
		if err := c.RegisterPort(port, "mpeg1", recv.Addr(), ""); err != nil {
			t.Fatal(err)
		}
		s, err := c.Play("movie", port, false)
		if err != nil {
			t.Fatalf("stream %d rejected: %v", i, err)
		}
		streams = append(streams, s)
	}

	// Third stream: no bandwidth left.
	recv3, _ := NewReceiver("")
	defer recv3.Close()
	if err := c.RegisterPort("tv3", "mpeg1", recv3.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	_, err = c.Play("movie", "tv3", false)
	if err == nil {
		t.Fatal("third stream admitted beyond disk bandwidth")
	}
	if !errors.Is(err, wire.ErrRemote) || !strings.Contains(err.Error(), "no MSU with sufficient resources") {
		t.Fatalf("unexpected rejection: %v", err)
	}

	// With Wait, the request queues and succeeds once a slot frees.
	since := cursor(t, c)
	done := make(chan error, 1)
	go func() {
		s, err := c.Play("movie", "tv3", true)
		if err == nil {
			s.Quit() //nolint:errcheck
		}
		done <- err
	}()
	awaitEvent(t, c, since, obs.Event{Kind: obs.EvQueue})
	if err := streams[0].Quit(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued play failed: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("queued play never scheduled")
	}
	streams[1].Quit() //nolint:errcheck
}

func TestTypeMismatchRejected(t *testing.T) {
	cluster := movieCluster(t, time.Second)
	c, err := Dial(cluster.Addr(), "grace")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recv, _ := NewReceiver("")
	defer recv.Close()
	if err := c.RegisterPort("audio", "vat-audio", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	// "movie" is mpeg1; playing it to a vat-audio port must fail.
	if _, err := c.Play("movie", "audio", false); err == nil {
		t.Fatal("type mismatch accepted")
	}
	// Duplicate port names are rejected.
	if err := c.RegisterPort("audio", "vat-audio", recv.Addr(), ""); err == nil {
		t.Fatal("duplicate port accepted")
	}
	// Unknown content.
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Play("nonesuch", "tv", false); err == nil {
		t.Fatal("unknown content accepted")
	}
	// Unknown port.
	if _, err := c.Play("movie", "nonesuch", false); err == nil {
		t.Fatal("unknown port accepted")
	}
}

func TestMSUFailureAndRecovery(t *testing.T) {
	cluster := movieCluster(t, time.Second)
	c, err := Dial(cluster.Addr(), "heidi")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recv, _ := NewReceiver("")
	defer recv.Close()
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}

	// Kill the MSU: the Coordinator notices via the broken TCP
	// connection and marks it unavailable.
	since := cursor(t, c)
	cluster.MSUs[0].Close()
	awaitEvent(t, c, since, obs.Event{Kind: obs.EvMSUDown, MSU: "msu0"})
	if _, err := c.Play("movie", "tv", false); err == nil {
		t.Fatal("play succeeded against a dead MSU")
	}

	// Bring a replacement up on the same volumes: it re-registers and
	// service resumes (§2.2).
	since = cursor(t, c)
	m2, err := cluster.RestartMSU(0)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	awaitEvent(t, c, since, obs.Event{Kind: obs.EvMSUUp, MSU: "msu0"})
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatalf("play after recovery: %v", err)
	}
	if !recv.WaitCount(5, 5*time.Second) {
		t.Fatal("no packets after recovery")
	}
	stream.Quit() //nolint:errcheck
}

func TestRecordingOverestimateReclaimed(t *testing.T) {
	// A recording that reserves far more than it uses must hand the
	// difference back: afterwards an equally huge reservation still
	// fits.
	cluster, err := StartCluster(ClusterConfig{
		BlockSize: 64 * 1024,
		DiskSize:  8 * units.MB, // small disk: ~120 blocks
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, err := Dial(cluster.Addr(), "ivan")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recv, _ := NewReceiver("")
	defer recv.Close()
	if err := c.RegisterPort("cam", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}

	record := func(name string) {
		t.Helper()
		// 30 s at 1.5 Mbit/s ≈ 5.6 MB ≈ 86 of ~120 blocks: two such
		// reservations cannot coexist.
		rec, err := c.Record(name, "mpeg1", "cam", 30*time.Second, false)
		if err != nil {
			t.Fatalf("record %s: %v", name, err)
		}
		data, _ := rec.Sink("mpeg1")
		conn, err := net.Dial("udp", data)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < 20; i++ {
			conn.Write(make([]byte, 1024)) //nolint:errcheck
		}
		since := cursor(t, c)
		if err := rec.Stop(); err != nil {
			t.Fatal(err)
		}
		awaitEvent(t, c, since, obs.Event{Kind: obs.EvRecCommit, Content: name})
	}
	record("take1")
	record("take2")
	record("take3") // only possible if overestimates were reclaimed
}

func TestDeleteContent(t *testing.T) {
	cluster := movieCluster(t, time.Second)
	c, err := Dial(cluster.Addr(), "judy")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeleteContent("movie"); err != nil {
		t.Fatal(err)
	}
	items, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 0 {
		t.Fatalf("content remains: %+v", items)
	}
	if err := c.DeleteContent("movie"); err == nil {
		t.Fatal("double delete succeeded")
	}
	// The volume no longer holds the file or its companions.
	for _, fi := range cluster.Volume(0, 0).List() {
		t.Errorf("file %q survived deletion", fi.Name)
	}
}

func TestMultiMSUPlacement(t *testing.T) {
	// Content lands on specific MSUs; plays route to the right one.
	pkts := shortMovie(t, time.Second)
	cluster, err := StartCluster(ClusterConfig{
		MSUs:      2,
		BlockSize: 64 * 1024,
		Preload: func(m, d int, vol *msufs.Volume) error {
			name := "movie-a"
			if m == 1 {
				name = "movie-b"
			}
			return Ingest(vol, name, "mpeg1", pkts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, err := Dial(cluster.Addr(), "kate")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	items, err := c.ListContent()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("contents = %+v", items)
	}
	recv, _ := NewReceiver("")
	defer recv.Close()
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"movie-a", "movie-b"} {
		s, err := c.Play(name, "tv", false)
		if err != nil {
			t.Fatalf("play %s: %v", name, err)
		}
		want := "msu0"
		if name == "movie-b" {
			want = "msu1"
		}
		if string(s.Info().MSU) != want {
			t.Errorf("%s served by %s, want %s", name, s.Info().MSU, want)
		}
		if !recv.WaitCount(3, 5*time.Second) {
			t.Fatalf("%s not delivering", name)
		}
		s.Quit() //nolint:errcheck
	}
}
