package msu

import (
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// readLog is the device under a test volume: it counts the device calls
// that reach it — one a scheduler transfer, a coalesced one too — and the
// blocks each read from their first byte (a page read head first is two
// calls, and only its head begins on a block). Blocks start on multiples
// of blockSize: the volume's metadata region is a whole number of them.
type readLog struct {
	blockdev.BlockDevice
	blockSize int64

	mu    sync.Mutex
	reads int64
	at    map[int64]int // device offset of a block → calls that read it from its first byte
}

func (d *readLog) log(off, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	for o := (off + d.blockSize - 1) / d.blockSize * d.blockSize; o < off+n; o += d.blockSize {
		d.at[o]++
	}
}

func (d *readLog) ReadAt(p []byte, off int64) error {
	d.log(off, int64(len(p)))
	return d.BlockDevice.ReadAt(p, off)
}

func (d *readLog) ReadAtv(off int64, bufs ...[]byte) error {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	d.log(off, n)
	return blockdev.ReadVector(d.BlockDevice, off, bufs...)
}

func (d *readLog) total() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}

// blocksRead is how many blocks those calls covered between them.
func (d *readLog) blocksRead() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var blocks int64
	for _, n := range d.at {
		blocks += int64(n)
	}
	return blocks
}

func (d *readLog) readsOf(off int64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.at[off]
}

// vcrRig drives one MSU built by New the way a Coordinator and a client
// would, minus the Coordinator: streams start through startStream, the
// MSU dials the rig's control listener, and every stream delivers to the
// rig's one UDP sink.
type vcrRig struct {
	t    *testing.T
	m    *MSU
	dev  *readLog
	sink *net.UDPConn
	ln   net.Listener
	vcrs chan *wire.Peer
	next uint64
}

// newReadLogVolume formats a memory-backed volume over a readLog.
func newReadLogVolume(t *testing.T) (*msufs.Volume, *readLog) {
	t.Helper()
	const blockSize = 64 * 1024
	mem, err := blockdev.NewMem(32 * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	dev := &readLog{BlockDevice: mem, blockSize: blockSize, at: make(map[int64]int)}
	vol, err := msufs.Format(dev, msufs.Options{BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	return vol, dev
}

func newVCRRig(t *testing.T) *vcrRig {
	t.Helper()
	vol, dev := newReadLogVolume(t)
	r := newVCRRigOn(t, Config{Volumes: []*msufs.Volume{vol}})
	r.dev = dev
	return r
}

// newVCRRigOn is newVCRRig over the caller's volumes (and whatever else
// cfg sets); such a rig has no readLog to count device reads with.
func newVCRRigOn(t *testing.T, cfg Config) *vcrRig {
	t.Helper()
	cfg.ID, cfg.Coordinator = "rig", "127.0.0.1:1"
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() }) //nolint:errcheck // best-effort teardown
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() }) //nolint:errcheck
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &vcrRig{t: t, m: m, sink: sink, ln: ln, vcrs: make(chan *wire.Peer, 1)}
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			r.vcrs <- wire.NewPeer(conn, func(string, json.RawMessage) (any, error) { return nil, nil }, nil)
		}
	}()
	t.Cleanup(func() {
		ln.Close() //nolint:errcheck
		<-accepted
	})
	return r
}

// play starts a stream of content from 0 and returns its control peer.
func (r *vcrRig) play(content string) *wire.Peer {
	r.t.Helper()
	r.next++
	_, err := r.m.startStream(core.StreamSpec{
		Stream: core.StreamID(r.next), Group: r.next, GroupSize: 1,
		Content: content, Type: "mpeg1", Protocol: "cbr", Class: core.ConstantRate,
		Rate:      1500 * units.Kbps,
		DestAddr:  r.sink.LocalAddr().String(),
		ClientTCP: r.ln.Addr().String(),
	})
	if err != nil {
		r.t.Fatalf("start-stream %q: %v", content, err)
	}
	select {
	case p := <-r.vcrs:
		return p
	case <-time.After(5 * time.Second):
		r.t.Fatal("MSU never dialled the control listener")
		return nil
	}
}

func (r *vcrRig) vcr(p *wire.Peer, op string, pos time.Duration) {
	r.t.Helper()
	if err := p.Call(wire.TypeVCR, wire.VCR{Op: op, Pos: pos}, &wire.VCRAck{}); err != nil {
		r.t.Fatalf("vcr %s: %v", op, err)
	}
}

// quit ends a stream and waits until the MSU has torn it down, so no
// read of its is still in flight when the caller compares counters, and
// empties the sink of what it sent.
func (r *vcrRig) quit(p *wire.Peer) {
	r.t.Helper()
	r.vcr(p, "quit", 0)
	p.Close() //nolint:errcheck // the MSU closes its end too
	r.drained()
}

// drained is the second half of quit: the wait for the MSU to have torn
// every stream down, and the emptying of the sink.
func (r *vcrRig) drained() {
	r.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.m.mu.Lock()
		n := len(r.m.streams)
		r.m.mu.Unlock()
		if n == 0 {
			r.emptySink()
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("%d streams linger after quit", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// emptySink reads off what the MSU has already sent; call it once no
// player is sending.
func (r *vcrRig) emptySink() {
	buf := make([]byte, 4096)
	for err := error(nil); err == nil; {
		r.sink.SetReadDeadline(time.Now().Add(5 * time.Millisecond)) //nolint:errcheck
		_, _, err = r.sink.ReadFromUDP(buf)
	}
}

// frame waits for a datagram from frame number ≥ min and returns its
// frame number (what came before a seek took effect is read past).
func (r *vcrRig) frame(min uint32) uint32 {
	r.t.Helper()
	buf := make([]byte, 4096)
	r.sink.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	for {
		n, _, err := r.sink.ReadFromUDP(buf)
		if err != nil {
			r.t.Fatalf("no packet from frame ≥ %d: %v", min, err)
		}
		h, err := media.ParseHeader(buf[:n])
		if err != nil {
			r.t.Fatal(err)
		}
		if h.Frame >= min {
			return h.Frame
		}
	}
}

// collect reads the next n datagrams off the sink.
func (r *vcrRig) collect(n int) [][]byte {
	r.t.Helper()
	out := make([][]byte, 0, n)
	buf := make([]byte, 4096)
	r.sink.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	for len(out) < n {
		k, _, err := r.sink.ReadFromUDP(buf)
		if err != nil {
			r.t.Fatalf("datagram %d of %d: %v", len(out), n, err)
		}
		out = append(out, append([]byte(nil), buf[:k]...))
	}
	return out
}

// rootOffset is where on the device the page holding a file's IB-tree
// root sits.
func (r *vcrRig) rootOffset(name string) int64 {
	r.t.Helper()
	f, err := r.m.stores[0].Open(name)
	if err != nil {
		r.t.Fatal(err)
	}
	tree, err := treeFromAttrs(f, f.Attrs(), r.m.stores[0].BlockSize())
	if err != nil {
		r.t.Fatal(err)
	}
	_, off, err := f.Locate(tree.Meta().Root.Page)
	if err != nil {
		r.t.Fatal(err)
	}
	return off
}

// allScheduled asserts the invariant: every read that has reached the
// device was issued by its volume's scheduler.
func (r *vcrRig) allScheduled(when string) {
	r.t.Helper()
	if dev, sched := r.dev.total(), r.m.ioStats(0).Reads; dev != sched {
		r.t.Errorf("%s: %d reads reached the device, its scheduler issued %d", when, dev, sched)
	}
}

func ingestMovie(t *testing.T, store msufs.Store, name string, dur time.Duration, fps int) {
	t.Helper()
	pkts, err := media.GenerateCBR(media.CBRConfig{
		Rate: 1500 * units.Kbps, PacketSize: 1024, FPS: fps, GOP: 15, Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Ingest(store, name, "mpeg1", pkts); err != nil {
		t.Fatal(err)
	}
	if err := IngestFast(store, name, "mpeg1", pkts, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPlayPathReadsThroughScheduler pins the rule content.go states. On
// an MSU built by New, through plays from the start, a seek, the same
// seek again, a pause and resume and a fast scan: the device serves
// exactly the reads its scheduler issued; a play from the start reads no
// index; the first seek reads the root page once and the second not at
// all; and after delete and re-record under the same name a seek goes by
// the new file's index.
func TestPlayPathReadsThroughScheduler(t *testing.T) {
	r := newVCRRig(t)
	ingestMovie(t, r.m.stores[0], "movie", 20*time.Second, 30)
	root := r.rootOffset("movie")

	for i := 0; i < 3; i++ {
		p := r.play("movie")
		r.frame(0)
		r.quit(p)
	}
	if n := r.dev.readsOf(root); n != 0 {
		t.Errorf("3 plays from the start read the root page %d times", n)
	}
	r.allScheduled("after 3 plays from the start")

	for i := 1; i <= 2; i++ {
		p := r.play("movie")
		r.vcr(p, "seek", 5*time.Second)
		if got := r.frame(100); got < 149 || got > 151 {
			t.Errorf("seek %d to 5 s landed on frame %d, want 150", i, got)
		}
		if i == 2 {
			r.vcr(p, "pause", 0)
			r.vcr(p, "play", 0)
			r.vcr(p, "fast-forward", 0)
			r.vcr(p, "fast-backward", 0)
		}
		r.quit(p)
		// Read-ahead from 5 s stops well short of a 20 s title's last page,
		// so what read the root page was the descent: once, on the first
		// seek.
		if n := r.dev.readsOf(root); n != 1 {
			t.Errorf("after seek %d the root page has been read %d times, want 1", i, n)
		}
	}
	r.allScheduled("after seek, resume and fast scan")

	// The same name, other bytes: a third of the frame rate, so 3 s in
	// is frame 30, and a shorter file, so the root sits elsewhere.
	if err := r.m.deleteContent("movie"); err != nil {
		t.Fatal(err)
	}
	ingestMovie(t, r.m.stores[0], "movie", 12*time.Second, 10)
	newRoot := r.rootOffset("movie")
	if newRoot == root {
		t.Fatal("the re-recorded title's root page landed where the old one was; the test cannot tell them apart")
	}
	before, newBefore := r.dev.readsOf(root), r.dev.readsOf(newRoot)
	p := r.play("movie")
	r.vcr(p, "seek", 3*time.Second)
	if got := r.frame(20); got < 29 || got > 31 {
		t.Errorf("seek to 3 s of the re-recorded title landed on frame %d, want 30", got)
	}
	r.quit(p)
	if n := r.dev.readsOf(newRoot) - newBefore; n != 1 {
		t.Errorf("the re-recorded title's root page was read %d times, want 1", n)
	}
	if n := r.dev.readsOf(root) - before; n != 0 {
		t.Errorf("the deleted title's root page was read %d times after the delete", n)
	}
	r.allScheduled("after delete and re-record")
}

// TestReplicaReadBackThroughScheduler runs one MSU-to-MSU copy and checks
// the destination's verification read went through its scheduler like
// any play-path read, and that the replica then plays.
func TestReplicaReadBackThroughScheduler(t *testing.T) {
	src, dst := newVCRRig(t), newVCRRig(t)
	ingestMovie(t, src.m.stores[0], "movie", 2*time.Second, 30)
	if err := src.m.startTransferListener(); err != nil {
		t.Fatal(err)
	}
	st, err := src.m.stores[0].Stat("movie")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.m.handleReplicate(wire.Replicate{
		ID: 1, Content: "movie", Type: "mpeg1", Source: src.m.transferLn.Addr().String(),
		Size: units.ByteSize(st.Size), HasFast: true,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, err := dst.m.stores[0].Stat("movie"); err == nil && st.Attrs[AttrType] != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the replica never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dst.dev.total() == 0 {
		t.Error("the commit read nothing back")
	}
	dst.allScheduled("after the replica's read-back")
	src.allScheduled("after serving the copy")
	p := dst.play("movie")
	dst.frame(0)
	dst.quit(p)
	dst.allScheduled("after playing the replica")
}

// TestCorruptCachedPageRereadThroughScheduler damages one resident page
// of a warmed title in place. The next viewer must get every packet as
// stored, the damaged page must be read off the disk exactly once more —
// through the scheduler, like any miss — and the cache must end up
// holding the good bytes.
func TestCorruptCachedPageRereadThroughScheduler(t *testing.T) {
	const page = 2
	r := newVCRRig(t)
	store := r.m.stores[0]
	// 12 Mbit/s for 0.4 s: ~10 pages, played in real time in under half a
	// second, slowly enough that the sink loses nothing.
	pkts, err := media.GenerateCBR(media.CBRConfig{
		Rate: 12 * units.Mbps, PacketSize: 1024, FPS: 30, GOP: 15, Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Ingest(store, "movie", "mpeg1", pkts); err != nil {
		t.Fatal(err)
	}
	f, err := store.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	_, off, err := f.Locate(page)
	if err != nil {
		t.Fatal(err)
	}

	p := r.play("movie")
	r.collect(len(pkts))
	r.quit(p)
	c := r.m.cacheFor(0)
	ref := c.Lookup("movie", page)
	if ref == nil {
		t.Fatalf("page %d is not resident after a full play", page)
	}
	copy(ref.Bytes(), "junk") // over the page magic
	ref.Release()
	reads, pageReads := r.dev.total(), r.dev.readsOf(off)

	p = r.play("movie")
	got := r.collect(len(pkts))
	r.quit(p)
	if n := r.dev.readsOf(off) - pageReads; n != 1 {
		t.Errorf("the damaged page was read %d times, want 1", n)
	}
	if n := r.dev.total() - reads; n != 1 {
		t.Errorf("the replay made %d device reads, want only the damaged page's", n)
	}
	r.allScheduled("after replaying over a damaged cached page")

	// ReadBack and the raw block read below bypass the MSU, so they come
	// after the device-versus-scheduler comparison.
	want, err := ReadBack(store, "movie")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("stored %d packets, delivered %d", len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i].Payload) {
			t.Fatalf("packet %d differs from what is stored", i)
		}
	}
	ref = c.Lookup("movie", page)
	if ref == nil {
		t.Fatalf("page %d was not cached again", page)
	}
	defer ref.Release()
	onDisk := make([]byte, store.BlockSize())
	if err := f.ReadBlock(page, onDisk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), onDisk) {
		t.Errorf("the cache holds page %d with bytes that are not the disk's", page)
	}
}

// TestPipelinedVCRCommandsLeaveOnePlayer sends seeks two at a time down
// one control connection, as a client that does not wait for answers
// would. The connection serves each request on its own goroutine; the
// group must still hand them to the stream's disk process one after the
// other. Afterwards the sink must see one frame sequence and, after quit,
// no goroutine may be left.
func TestPipelinedVCRCommandsLeaveOnePlayer(t *testing.T) {
	r := newVCRRig(t)
	ingestMovie(t, r.m.stores[0], "movie", 20*time.Second, 30)
	// One play and quit first: the volume's scheduler starts its
	// goroutines on the first read, and they stay.
	p := r.play("movie")
	r.frame(0)
	r.quit(p)
	idle := runtime.NumGoroutine()
	p = r.play("movie")
	r.frame(0)
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for _, pos := range []time.Duration{5 * time.Second, 10 * time.Second} {
			pos := pos
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := p.Call(wire.TypeVCR, wire.VCR{Op: "seek", Pos: pos}, &wire.VCRAck{}); err != nil {
					t.Errorf("seek: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	// 15 s is frame 450, ahead of anything a player left over from the
	// rounds above can have reached.
	r.vcr(p, "seek", 15*time.Second)
	last := r.frame(449)
	buf := make([]byte, 4096)
	for i := 0; i < 40; i++ {
		n, _, err := r.sink.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		h, err := media.ParseHeader(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if h.Frame < last {
			t.Fatalf("frame %d after frame %d: a second player is sending", h.Frame, last)
		}
		last = h.Frame
	}
	r.quit(p)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > idle {
		if time.Now().After(deadline) {
			b := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after quit, %d before the play\n%s", runtime.NumGoroutine(), idle, b[:runtime.Stack(b, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
