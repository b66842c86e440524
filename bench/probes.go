package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"calliope"
	"calliope/internal/admindb"
	"calliope/internal/blockdev"
	"calliope/internal/cache"
	"calliope/internal/coordinator"
	"calliope/internal/fakemsu"
	"calliope/internal/ibtree"
	"calliope/internal/iosched"
	"calliope/internal/msu"
	"calliope/internal/msufs"
	"calliope/internal/obs"
	"calliope/internal/protocol"
	"calliope/internal/queue"
	"calliope/internal/replicate"
	"calliope/internal/schedule"
	"calliope/internal/wire"
)

// A probe times calls into one layer's public functions in isolation,
// on the workload's own inputs: the first title of the plan, cut to a
// few seconds. Probes run after the measured window of a traced run, so
// they cost the window nothing; each is a few milliseconds to a few
// tens, and says what a call costs when nothing else contends for it.
// The traced run's counters say how often the workload makes the call.

// probeTitleLength caps the content a probe works on.
const probeTitleLength = 4 * time.Second

// timeEach runs f n times and reports the mean duration of one call.
func timeEach(n int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start) / time.Duration(n)
}

// probeEnv is the scratch volume the storage probes share: a memory
// device holding the probe title, ingested the way the harness does.
type probeEnv struct {
	scratch string // where a probe that needs real files keeps them
	t       title
	pkts    []calliope.Packet
	vol     *msufs.Volume
	store   msufs.Store
	tree    *ibtree.Tree
	file    msufs.StoreFile
}

func newProbeEnv(p *plan, scratch string) (*probeEnv, error) {
	t := p.titles[0]
	if t.length > probeTitleLength {
		t.length = probeTitleLength
	}
	mem, err := blockdev.NewMem(metaSize + (2*blocksFor(t)+64)*blockSize)
	if err != nil {
		return nil, err
	}
	vol, err := msufs.Format(mem, msufs.Options{BlockSize: blockSize})
	if err != nil {
		return nil, err
	}
	env := &probeEnv{scratch: scratch, t: t, pkts: t.generate(), vol: vol, store: msufs.NewStore(vol)}
	if err := calliope.Ingest(vol, t.name, t.ctype, env.pkts); err != nil {
		return nil, err
	}
	if env.file, err = env.store.Open(t.name); err != nil {
		return nil, err
	}
	var meta ibtree.Meta
	if err := json.Unmarshal([]byte(env.file.Attrs()[msu.AttrTree]), &meta); err != nil {
		return nil, fmt.Errorf("probe: ibtree metadata: %w", err)
	}
	if env.tree, err = ibtree.Open(env.file, blockSize, meta); err != nil {
		return nil, err
	}
	return env, nil
}

// runProbes fills in the probe metrics. A probe that cannot run leaves
// its metric at zero and says why on standard error: a broken probe
// must not cost the run its counters.
func runProbes(p *plan, scratch string, vals values) {
	env, err := newProbeEnv(p, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: probes skipped:", err)
		return
	}
	for _, probe := range []struct {
		name string
		run  func(*probeEnv, values) error
	}{
		{"queue", probeQueue}, {"ibtree", probeIBTree}, {"protocol+obs", probeSmall},
		{"net", probeUDP}, {"iosched", probeIOSched}, {"cache", probeCache},
		{"msufs", probeMsufs}, {"schedule+wire", probeWire}, {"admindb", probeAdmindb},
		{"coordinator", probeCoordinator}, {"replicate", probeReplicate}, {"msu", probeMSU},
	} {
		if err := probe.run(env, vals); err != nil {
			fmt.Fprintf(os.Stderr, "bench: probe %s: %v\n", probe.name, err)
		}
	}
}

// probeQueue: the SPSC hand-off between the disk and network sides, and
// the page pool's get/release.
func probeQueue(_ *probeEnv, vals values) error {
	const n = 200000
	q := queue.NewSPSC[int](512)
	vals.set("queue.spsc_ns_per_op", ns(timeEach(n, func(i int) {
		q.Enqueue(i)
		q.Dequeue()
	})), n)
	pool, err := queue.NewPagePool(blockSize, 4)
	if err != nil {
		return err
	}
	vals.set("queue.pagepool_ns_per_op", ns(timeEach(n, func(int) {
		pool.TryGet().Release()
	})), n)
	return nil
}

// probeIBTree: cutting a loaded page into packet spans, descending to a
// seek position, and appending while recording.
func probeIBTree(env *probeEnv, vals values) error {
	page := make([]byte, blockSize)
	spans := 0
	var cutting time.Duration // time in Next alone: the page load is msufs's and the device's
	for round := 0; round < 8; round++ {
		cur, err := env.tree.PageCursorAt(0)
		if err != nil {
			return err
		}
		for {
			ok, err := cur.LoadPage(page)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			start := time.Now()
			for {
				_, more, err := cur.Next()
				if err != nil {
					return err
				}
				if !more {
					break
				}
				spans++
			}
			cutting += time.Since(start)
		}
	}
	vals.set("ibtree.next_ns_per_pkt", ratio(ns(cutting), float64(spans)), spans)

	const seeks = 2000
	var seekErr error
	vals.set("ibtree.seek_us", us(timeEach(seeks, func(i int) {
		// Packet offsets spread over the title, as the closed-loop
		// clients seek.
		at := env.t.offsetOf(i * 7919 % env.t.packets())
		if _, err := env.tree.PageCursorAt(at); err != nil {
			seekErr = err
		}
	})), seeks)
	if seekErr != nil {
		return seekErr
	}

	file, err := env.store.Create("probe-append", int64(len(env.pkts)*(env.t.pktSize+32)), nil)
	if err != nil {
		return err
	}
	defer env.store.Remove("probe-append") //nolint:errcheck // scratch volume
	b, err := ibtree.NewBuilder(file, blockSize, 0)
	if err != nil {
		return err
	}
	stored := make([][]byte, len(env.pkts))
	for i, p := range env.pkts {
		stored[i] = protocol.EncodeStored(protocol.Data, p.Payload)
	}
	var appendErr error
	per := timeEach(len(env.pkts), func(i int) {
		if err := b.Append(ibtree.Packet{Time: env.pkts[i].Time, Payload: stored[i]}); err != nil {
			appendErr = err
		}
	})
	vals.set("ibtree.append_ns_per_pkt", ns(per), len(env.pkts))
	return appendErr
}

// probeSmall: the per-packet odds and ends — the stored-record decode
// and the metrics handles the delivery loop touches.
func probeSmall(env *probeEnv, vals values) error {
	const n = 500000
	rec := protocol.EncodeStored(protocol.Data, env.pkts[0].Payload)
	var decodeErr error
	vals.set("protocol.decode_ns", ns(timeEach(n, func(int) {
		if _, _, err := protocol.DecodeStored(rec); err != nil {
			decodeErr = err
		}
	})), n)
	reg := obs.New(obs.Options{Now: time.Now})
	c := reg.Counter("probe_total")
	h := reg.Histogram("probe_seconds", obs.DefaultLatencyBuckets)
	vals.set("obs.counter_inc_ns", ns(timeEach(n, func(int) { c.Inc() })), n)
	vals.set("obs.hist_observe_ns", ns(timeEach(n, func(i int) { h.Observe(time.Duration(i) * time.Microsecond) })), n)
	// A registry the size of the MSU's, as a cache report snapshots it.
	for i := 0; i < 8; i++ {
		reg.Counter(fmt.Sprintf("probe_%d_total", i)).Inc()
	}
	const snaps = 2000
	vals.set("obs.snapshot_us", us(timeEach(snaps, func(int) { reg.Snapshot() })), snaps)
	return decodeErr
}

// probeUDP: one datagram of the workload's size written to a loopback
// socket that is being drained, as the network goroutine does.
func probeUDP(env *probeEnv, vals values) error {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64<<10)
		for {
			if _, _, err := sink.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	defer func() {
		sink.Close() //nolint:errcheck // ends the drain goroutine
		<-drained
	}()
	conn, err := net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer conn.Close() //nolint:errcheck // send-only socket
	const n = 20000
	var writeErr error
	vals.set("net.udp_write_us", us(timeEach(n, func(int) {
		if _, err := conn.Write(env.pkts[0].Payload); err != nil {
			writeErr = err
		}
	})), n)
	return writeErr
}

// probeIOSched: a page read submitted to a scheduler over a memory
// device and waited for, one at a time and 32 at a time.
func probeIOSched(env *probeEnv, vals values) error {
	pages := env.tree.Meta().Pages
	for _, depth := range []int{1, 32} {
		sched := iosched.New(env.vol.Device(), iosched.Options{Now: time.Now})
		reqs := make([]iosched.Request, depth)
		for i := range reqs {
			reqs[i] = iosched.Request{Buf: make([]byte, blockSize), C: make(chan *iosched.Request, 1)}
		}
		const rounds = 200
		var readErr error
		per := timeEach(rounds, func(r int) {
			for i := range reqs {
				_, off, err := env.file.Locate(int64(r*depth+i) % pages)
				if err != nil {
					readErr = err
					return
				}
				reqs[i].Off = off
				sched.Submit(&reqs[i])
			}
			for i := range reqs {
				if done := <-reqs[i].C; done.Err != nil {
					readErr = done.Err
				}
			}
		})
		sched.Close() //nolint:errcheck // Close never fails
		if readErr != nil {
			return readErr
		}
		vals.set(fmt.Sprintf("iosched.submit_d%d_us", depth), us(per)/float64(depth), rounds*depth)
	}
	return nil
}

// probeCache: a hit in a warm cache, and an insert that has to evict.
func probeCache(_ *probeEnv, vals values) error {
	pool, err := queue.NewPagePool(blockSize, int(msu.DefaultCacheBytes)/blockSize)
	if err != nil {
		return err
	}
	c := cache.New(pool)
	c.PlayerStart("probe", 1, 1<<20) // the cache keeps pages only of content someone plays
	for i := 0; i < c.Pages(); i++ {
		ref := c.Alloc()
		if ref == nil {
			return fmt.Errorf("cache refused page %d of %d", i, c.Pages())
		}
		c.Insert("probe", int64(i), ref)
		ref.Release()
	}
	const n = 200000
	var missed int
	vals.set("cache.lookup_ns", ns(timeEach(n, func(i int) {
		ref := c.Lookup("probe", int64(i%c.Pages()))
		if ref == nil {
			missed++
			return
		}
		ref.Release()
	})), n)
	if missed > 0 {
		return fmt.Errorf("%d of %d lookups missed a warm cache", missed, n)
	}
	const inserts = 20000
	var refused int
	vals.set("cache.insert_evict_ns", ns(timeEach(inserts, func(i int) {
		ref := c.Alloc() // full: this evicts
		if ref == nil {
			refused++
			return
		}
		c.Insert("probe", int64(c.Pages()+i), ref)
		ref.Release()
	})), inserts)
	if refused > 0 {
		return fmt.Errorf("%d of %d allocations found nothing to evict", refused, inserts)
	}
	return nil
}

// probeMsufs: whole-block writes and reads, and the create-commit pair
// a recording pays.
func probeMsufs(env *probeEnv, vals values) error {
	const blocks = 32
	file, err := env.store.Create("probe-blocks", blocks*blockSize, nil)
	if err != nil {
		return err
	}
	defer env.store.Remove("probe-blocks") //nolint:errcheck // scratch volume
	page := make([]byte, blockSize)
	var ioErr error
	note := func(err error) {
		if err != nil {
			ioErr = err
		}
	}
	vals.set("msufs.writeblock_us", us(timeEach(blocks, func(i int) { note(file.WriteBlock(int64(i), page)) })), blocks)
	const reads = 256
	vals.set("msufs.readblock_us", us(timeEach(reads, func(i int) { note(file.ReadBlock(int64(i%blocks), page)) })), reads)
	const files = 64
	vals.set("msufs.create_commit_us", us(timeEach(files, func(i int) {
		name := fmt.Sprintf("probe-file-%d", i)
		f, err := env.store.Create(name, blockSize, nil)
		if err != nil {
			note(err)
			return
		}
		note(f.WriteBlock(0, page))
		note(f.Commit())
		note(env.store.Remove(name))
	})), files)
	return ioErr
}

// probeWire: a ledger reserve-release pair, one envelope's encoding, and
// a request-response round trip between two peers over loopback TCP.
func probeWire(_ *probeEnv, vals values) error {
	ledger, err := schedule.NewLedger(int64(unbounded))
	if err != nil {
		return err
	}
	const n = 200000
	var ledgerErr error
	vals.set("schedule.ledger_ns", ns(timeEach(n, func(i int) {
		if err := ledger.Reserve(uint64(i), int64(rateSD)); err != nil {
			ledgerErr = err
		}
		ledger.Release(uint64(i)) //nolint:errcheck // just reserved
	})), n)
	if ledgerErr != nil {
		return ledgerErr
	}

	play := wire.Play{Content: "title-001", Port: portName(typeSD, 0), ControlAddr: "127.0.0.1:40000"}
	body, err := json.Marshal(play)
	if err != nil {
		return err
	}
	var sink bytes.Buffer
	var encErr error
	const encodes = 50000
	vals.set("wire.encode_ns", ns(timeEach(encodes, func(i int) {
		sink.Reset()
		if err := wire.WriteMessage(&sink, &wire.Envelope{Kind: wire.KindRequest, ID: uint64(i), Type: wire.TypePlay, Body: body}); err != nil {
			encErr = err
		}
	})), encodes)
	if encErr != nil {
		return encErr
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close() //nolint:errcheck // probe listener
	accepted := make(chan *wire.Peer, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		accepted <- wire.NewPeer(conn, func(string, json.RawMessage) (any, error) { return &wire.PortOK{Port: 1}, nil }, nil)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	client := wire.NewPeer(conn, nil, nil)
	defer client.Close() //nolint:errcheck // probe peer
	server := <-accepted
	if server == nil {
		return fmt.Errorf("accepting the probe connection failed")
	}
	defer server.Close() //nolint:errcheck // probe peer
	const calls = 5000
	var callErr error
	vals.set("wire.call_rtt_us", us(timeEach(calls, func(int) {
		var ok wire.PortOK
		if err := client.Call(wire.TypeRegisterPort, play, &ok); err != nil {
			callErr = err
		}
	})), calls)
	return callErr
}

// probeAdmindb: the mutation a Play journals (the ID counters), against
// the file store with its fsync and against the memory store.
func probeAdmindb(env *probeEnv, vals values) error {
	if err := os.MkdirAll(env.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(env.scratch, "admindb-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch state
	fileStore, err := admindb.Open(admindb.Options{Dir: filepath.Join(dir, "db")})
	if err != nil {
		return err
	}
	defer fileStore.Close() //nolint:errcheck // probe store
	var applyErr error
	apply := func(s admindb.Store) func(int) {
		return func(i int) {
			if err := s.Apply(admindb.SetCounters(admindb.Counters{NextStream: uint64(i), NextGroup: uint64(i)})); err != nil {
				applyErr = err
			}
		}
	}
	const durable = 200
	vals.set("admindb.apply_us", us(timeEach(durable, apply(fileStore))), durable)
	const volatile = 100000
	vals.set("admindb.apply_mem_us", us(timeEach(volatile, apply(admindb.NewMem()))), volatile)
	return applyErr
}

// probeCoordinator: a whole Play round trip against a Coordinator whose
// only MSU is a fake that answers at once and holds no stream, so what
// is timed is admission, the ledgers, and two wire hops.
func probeCoordinator(_ *probeEnv, vals values) error {
	coord, err := coordinator.New(coordinator.Config{Types: contentTypes()})
	if err != nil {
		return err
	}
	if err := coord.Start(); err != nil {
		return err
	}
	defer coord.Close()        //nolint:errcheck // probe coordinator
	var fakeBytes atomic.Int64 // fakemsu counts its traffic here; the probe has no use for it
	fake, err := fakemsu.Start(coord.Addr(), "fake0", typeSD, 0, &fakeBytes)
	if err != nil {
		return err
	}
	defer fake.Close() //nolint:errcheck // probe MSU
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		return err
	}
	peer := wire.NewPeer(conn, nil, nil)
	defer peer.Close() //nolint:errcheck // probe session
	if err := peer.Call(wire.TypeHello, wire.Hello{User: "probe", ProtoVersion: wire.ProtoVersion}, &wire.Welcome{}); err != nil {
		return err
	}
	if err := peer.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "p", Type: typeSD, Addr: "127.0.0.1:40000"}, nil); err != nil {
		return err
	}
	const plays = 2000
	var playErr error
	vals.set("coordinator.play_us", us(timeEach(plays, func(int) {
		var ok wire.PlayOK
		if err := peer.Call(wire.TypePlay, wire.Play{Content: fake.Content(), Port: "p", ControlAddr: "127.0.0.1:40000"}, &ok); err != nil {
			playErr = err
		}
	})), plays)
	return playErr
}

// nullSink discards what Receive hands it.
type nullSink struct{}

func (nullSink) WriteBlock(int64, []byte) error { return nil }
func (nullSink) Close() error                   { return nil }

// probeReplicate: the copy engine's framing, Serve to Receive over an
// in-memory pipe. No workload exercises replication yet; this keeps a
// row for it.
func probeReplicate(env *probeEnv, vals values) error {
	blocks := env.tree.Meta().Pages
	src := replicate.SourceFile{
		Name: env.t.name, Size: blocks * blockSize, Blocks: blocks, BlockSize: blockSize,
		ReadBlock: func(i int64, p []byte) (int, error) {
			n := env.file.BlockLen(i)
			return n, env.file.ReadBlock(i, p[:n])
		},
	}
	a, b := net.Pipe()
	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close() //nolint:errcheck // probe pipe
		serveErr = replicate.Serve(a, []replicate.SourceFile{src}, replicate.Request{Content: env.t.name}, replicate.ServeOptions{})
	}()
	start := time.Now()
	sum, err := replicate.Receive(b, func(replicate.FileHeader) (replicate.Sink, error) { return nullSink{}, nil })
	took := time.Since(start)
	b.Close() //nolint:errcheck // probe pipe
	wg.Wait()
	if err != nil {
		return err
	}
	if serveErr != nil {
		return serveErr
	}
	vals.set("replicate.frame_mbps", mbps(sum.Bytes, took), int(sum.Blocks))
	return nil
}

// probeMSU: the two measurements the MSU package already exports — the
// zero-copy delivery path flat out, and one 24-reader session through
// the I/O scheduler on a mechanical disk at 100x speed.
func probeMSU(_ *probeEnv, vals values) error {
	delivery, err := msu.MeasureDelivery(1)
	if err != nil {
		return err
	}
	vals.set("msu.delivery_ns_per_pkt", delivery.NsPerOp, 8192)
	sessions, err := msu.MeasureIOSched(1)
	if err != nil {
		return err
	}
	for _, s := range sessions {
		if s.Name == "iosched/sched" {
			vals.set("msu.iosched_session_ms", s.NsPerOp/1e6, 1)
		}
	}
	return nil
}
