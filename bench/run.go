package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"calliope"
	"calliope/internal/wire"
)

// result is everything one measured run observed, before it is turned
// into named metrics.
type result struct {
	p   *plan
	win window
	vs  *viewerStats

	setup sample        // set-up times of this invocation, s
	cpu   time.Duration // process user+system time over the window
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to someone else during the window (/proc/stat's steal column): on a
	// shared box, the first thing to look at when a run reads late.
	stealPct float64
	genLate  sample // how late the open-loop generator issued each play, ms
	cycles   int64  // closed-loop cycles completed inside the window

	// Device counters: over the window, and over its capacity tail.
	dev, devTail devCounters
	// Control-plane traffic over the window.
	ctlBytes, ctlMsgs int64

	recSent, recIntact int64  // packets paced into record sinks / found intact in the committed recordings
	recSinkDrops       int64  // datagrams the kernel dropped at the MSU's record sinks: its socket buffers overflowed
	recCommit          sample // Stop acked → recording listed, ms
	recSendLate        sample // how late each record packet left the bench, ms
	recErr             error

	sockDrops  int64 // datagrams the kernel dropped at the bench's own sockets
	dropsKnown bool
	msu        msuReport         // the MSU's last cumulative report, off the wire
	status     calliope.StatusV2 // scraped after the streams went idle
	events     []calliope.Event
	failures   []string // violated correctness checks
	invalid    []string // harness-noise findings: the run measured the harness, not the server
}

// engine runs one plan against one harness.
type engine struct {
	h    *harness
	p    *plan
	win  window
	stop chan struct{} // closed at the end of the window

	mu      sync.Mutex
	plays   []*play
	genLate sample
	wg      sync.WaitGroup
}

func (e *engine) addPlay(p *play) {
	e.mu.Lock()
	e.plays = append(e.plays, p)
	e.mu.Unlock()
}

// sleepUntil parks until t on the receiver's clock.
func (e *engine) sleepUntil(t time.Duration) {
	if d := t - e.h.recv.now(); d > 0 {
		time.Sleep(d)
	}
}

// processCPU is the process's user plus system time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the first line of /proc/stat, in clock ticks.
type hostCPU struct{ total, steal int64 }

// readHostCPU reads the machine-wide CPU counters; zero when they cannot
// be read, which makes the steal share read 0.
func readHostCPU() hostCPU {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// run measures the plan for its window and collects what happened.
func (h *harness) run() (*result, error) {
	p := h.p
	e := &engine{h: h, p: p, stop: make(chan struct{})}
	ports := h.recv.ports()
	drops0, _, known0 := udpSockets(ports)

	var rec *recorder
	if len(p.records) > 0 {
		var err error
		if rec, err = h.startRecordings(); err != nil {
			return nil, err
		}
	}
	from := h.recv.now() + 20*time.Millisecond // a beat for the goroutines below to park
	e.win = window{from: from, to: from + p.seconds, tailFrom: from + p.seconds - p.tailFor()}
	if p.ontimeFor > 0 {
		e.win.ontimeTo = from + p.ontimeFor
	}
	res := &result{p: p, win: e.win}

	e.wg.Add(1)
	go e.generate()
	cycles := make([]int64, nproc)
	if len(p.churn) > 0 {
		for k := 0; k < nproc; k++ {
			e.wg.Add(1)
			go e.churn(k, &cycles[k])
		}
	}
	if rec != nil {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			rec.run(e)
		}()
	}

	e.sleepUntil(e.win.from)
	cpu0, dev0, host0 := processCPU(), h.dev.counters(), readHostCPU()
	ctlBytes0, ctlMsgs0 := h.taps.ctl.bytes.Load(), h.taps.ctl.msgs.Load()
	e.sleepUntil(e.win.tailFrom)
	devTail0 := h.dev.counters()
	e.sleepUntil(e.win.to)
	cpu1, dev1, host1 := processCPU(), h.dev.counters(), readHostCPU()
	res.stealPct = pct(float64(host1.steal-host0.steal), float64(host1.total-host0.total))
	res.ctlBytes, res.ctlMsgs = h.taps.ctl.bytes.Load()-ctlBytes0, h.taps.ctl.msgs.Load()-ctlMsgs0
	res.cpu = cpu1 - cpu0
	res.dev, res.devTail = dev1.sub(dev0), dev1.sub(devTail0)

	close(e.stop)
	e.wg.Wait()
	// Every quit has been acknowledged. A stream that was behind still
	// has reads queued on the spindle, and its teardown waits for them;
	// the window is over, so let them finish at memory speed. The pause
	// lets the MSU cancel the players first, so none of those reads turns
	// into a burst of late packets.
	time.Sleep(50 * time.Millisecond)
	h.dev.closeGate()
	for _, c := range cycles {
		res.cycles += c
	}
	res.genLate = e.genLate

	// Outputs are checked once everything the run started has wound
	// down: streams idle, sockets quiet, the MSU's last report sent.
	if err := h.clients[0].WaitStreamsIdle(15 * time.Second); err != nil {
		res.failures = append(res.failures, err.Error())
	}
	h.recv.quiesce(50*time.Millisecond, 2*time.Second)
	var err error
	if res.status, err = h.clients[0].StatusV2(); err != nil {
		return nil, fmt.Errorf("bench: scraping status: %w", err)
	}
	if h.tr != nil {
		if reply, err := h.clients[0].Events(calliope.EventsRequest{}); err == nil {
			res.events = reply.Events
		}
	}
	res.msu = h.taps.reports.last()
	drops1, _, known1 := udpSockets(ports)
	res.sockDrops, res.dropsKnown = drops1-drops0, known0 && known1
	h.recv.close()

	if rec != nil {
		rec.verify(h, res) // offline: the gate is shut, so not through the spindle
	}
	res.vs = analyse(h.recv, e.plays, e.win)
	if h.tr != nil {
		h.tr.addPlays(e.plays, h.dev.firstReads())
	}
	res.check()
	return res, nil
}

// generate is the open-loop generator: one goroutine issuing plays on
// the plan's fixed schedule, each timed from when it was due. It never
// waits for a play; each viewer runs in its own goroutine from there.
func (e *engine) generate() {
	defer e.wg.Done()
	for i, a := range e.p.arrivals {
		due := e.win.from + a.due
		e.sleepUntil(due)
		select {
		case <-e.stop:
			return
		default:
		}
		e.mu.Lock()
		e.genLate.addDur(e.h.recv.now() - due)
		e.mu.Unlock()
		e.wg.Add(1)
		go e.view(a, due, i%nproc)
	}
}

// view is one open-loop viewer: play, watch until the window ends, quit.
func (e *engine) view(a arrival, due time.Duration, k int) {
	defer e.wg.Done()
	p := &play{t: e.p.titles[a.title], sock: k, due: due, noStartup: a.noStartup}
	e.addPlay(p)
	stream := e.issue(p)
	if stream == nil {
		return
	}
	<-e.stop
	// A play the window ended on before its first packet came (the
	// overload step's queue is seconds deep, and deeper after the host
	// held the process up) is late, not failed: watch on until it starts.
	// What arrives now is outside the window and moves no metric.
	sock := e.h.recv.socks[k]
	for wait := startGrace; wait > 0 && !sock.started(p); wait -= 10 * time.Millisecond {
		time.Sleep(10 * time.Millisecond)
	}
	p.end = e.h.recv.now()
	p.quit(stream)
}

// startGrace is how long past the end of the window a viewer that has
// received nothing yet keeps watching before its play counts as failed.
const startGrace = 10 * time.Second

// quit ends the play. The MSU acknowledges a quit and tears the group
// down — control connection included — concurrently, so now and then the
// close overtakes the acknowledgement. The quit took effect all the same
// (the idle-streams and zero-ledger checks hold it to that), so a closed
// connection is noted, not counted as a failed operation.
func (p *play) quit(stream *calliope.Stream) {
	switch err := stream.Quit(); {
	case err == nil:
	case errors.Is(err, wire.ErrClosed):
		p.quitAckLost = true
	default:
		p.quitErr = err
	}
}

// issue sends p's Play (socket k's plays go out on session k) and fills
// in its timings. It returns nil when the play was refused.
func (e *engine) issue(p *play) *calliope.Stream {
	sock := e.h.recv.socks[p.sock]
	sock.expect(p)
	p.sent = e.h.recv.now()
	stream, err := e.h.clients[p.sock].Play(p.t.name, portName(p.t.ctype, p.sock), false)
	p.admitted = e.h.recv.now()
	if err != nil {
		p.err = err
		sock.forget(p)
		return nil
	}
	if info := stream.Info(); len(info.Streams) > 0 {
		p.stream = uint64(info.Streams[0].Stream)
	}
	return stream
}

// packetWait bounds a closed-loop client's wait for a packet; a wait
// that runs out is a failed operation, not a hang.
const packetWait = 5 * time.Second

// churn is one closed-loop client: play a seeded title, wait for its
// first packet, seek to a seeded position, wait for the first packet
// stamped at or after it, quit; again until the window ends.
func (e *engine) churn(k int, cycles *int64) {
	defer e.wg.Done()
	rng := rand.New(rand.NewSource(e.p.seed*7919 + int64(k)))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	wait := func(ch <-chan time.Duration) (time.Duration, bool) {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(packetWait)
		select {
		case at := <-ch:
			return at, true
		case <-timer.C:
			return 0, false
		}
	}
	e.sleepUntil(e.win.from)
	for e.h.recv.now() < e.win.to {
		t := e.p.titles[e.p.churn[rng.Intn(len(e.p.churn))]]
		// A packet's own offset, so the packet is due the moment the
		// seek lands and the wait is the server's, not the schedule's;
		// well ahead of the start and short of the end, so playing on
		// never reaches it first.
		target := t.offsetOf(t.packets()*3/10 + rng.Intn(t.packets()*6/10))
		p := &play{t: t, sock: k, first: make(chan time.Duration, 1)}
		p.due = e.h.recv.now()
		e.addPlay(p)
		stream := e.issue(p)
		if stream == nil {
			continue
		}
		if _, ok := wait(p.first); ok {
			w := &seekWatch{target: target, hit: make(chan time.Duration, 1)}
			p.seekTarget = target
			p.flow.seek.Store(w)
			p.seekSent = e.h.recv.now()
			if _, err := stream.Seek(target); err != nil {
				p.seekErr = err
			}
			p.seekAcked = e.h.recv.now()
			if at, ok := wait(w.hit); ok {
				p.seekHit = at
			}
		}
		p.end = e.h.recv.now()
		p.quit(stream)
		if p.flow != nil {
			p.flow.closed.Store(true)
		}
		if p.end < e.win.to && p.seekHit > 0 {
			*cycles++
		}
	}
}

// recordSettle bounds the wait for the record sinks to drain before Stop.
const recordSettle = 3 * time.Second

// recorder paces stamped streams into the MSU's record sinks.
type recorder struct {
	titles []title
	recs   []*calliope.Recording
	sinks  []netip.AddrPort
	sent   []int64
	commit sample
	// sendLate is how late each packet left, ms: the sender was held up,
	// or its sink was full.
	sendLate sample
	// sinkDrops is the kernel's drop count at the MSU's record sockets
	// when the sinks had drained: packets the recorder was too far
	// behind to take.
	sinkDrops int64
	err       error
}

// startRecordings asks for the plan's recordings; the MSU opens a sink
// for each.
func (h *harness) startRecordings() (*recorder, error) {
	r := &recorder{titles: h.p.records}
	for i, t := range r.titles {
		rec, err := h.clients[i%nproc].Record(t.name, t.ctype, portName(t.ctype, 0), h.p.seconds, false)
		if err != nil {
			return nil, fmt.Errorf("bench: starting recording %s: %w", t.name, err)
		}
		data, _ := rec.Sink(t.ctype)
		sink, err := netip.ParseAddrPort(data)
		if err != nil {
			return nil, fmt.Errorf("bench: record sink %q: %w", data, err)
		}
		r.recs = append(r.recs, rec)
		r.sinks = append(r.sinks, sink)
	}
	r.sent = make([]int64, len(r.titles))
	return r, nil
}

// A record sink is a UDP socket with the kernel's default buffer, about
// 25 of these packets: half a second of a recording. A recorder that is
// writing a page to a busy spindle does not read its socket meanwhile, and
// a sender that has been held up (the hypervisor took the CPU for half a
// second) would then send what is overdue in one burst: the two together
// overflow the buffer, and the run reads as record loss that the host made.
// So the sender looks at the sinks' queues every sinkSample and holds a
// recording's packets while its sink holds more than sinkRoom: they go out
// late (record.send_late_max_ms says how late), not into a full buffer.
const (
	sinkSample = 20 * time.Millisecond
	sinkRoom   = 100 << 10 // under half of Linux's default 208 KB receive buffer
)

// sinkWatch is the sender's running estimate of what each sink's socket
// holds: the kernel's figure at the last sample plus everything sent
// since, so it is never under the truth.
type sinkWatch struct {
	ports  []int
	at     time.Duration // when the last sample was taken
	queued []int64
}

func newSinkWatch(sinks []netip.AddrPort) *sinkWatch {
	w := &sinkWatch{queued: make([]int64, len(sinks))}
	for _, s := range sinks {
		w.ports = append(w.ports, int(s.Port()))
	}
	return w
}

func (w *sinkWatch) sample(now time.Duration) {
	w.at = now
	socks, ok := udpTable(w.ports)
	if !ok {
		return // unknown: keep adding to the last figure, and hold sooner
	}
	for j, p := range w.ports {
		w.queued[j] = socks[p].queued
	}
}

// sent charges sink j with one datagram of n bytes the way the kernel
// will: its buffer rounded up to a power of two, plus the descriptor.
func (w *sinkWatch) sent(j, n int) { w.queued[j] += int64(2*n + 512) }

func (w *sinkWatch) full(j int) bool { return w.queued[j] > sinkRoom }

// run sends every recording's packets on its schedule from one socket,
// lets the sinks drain, then stops the recordings and times their commits.
func (r *recorder) run(e *engine) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		r.err = err
		return
	}
	defer conn.Close() //nolint:errcheck // send-only socket
	buf := make([]byte, r.titles[0].pktSize)
	until := e.win.from + e.p.recordFor
	// Recording j starts j arrival gaps into the window; its packet i is
	// due one packet interval after its packet i-1. One loop sends them
	// all, always the packet that is due soonest among the recordings
	// whose sinks have room.
	next := make([]int, len(r.titles)) // next sequence number per recording
	dueOf := func(j int) time.Duration {
		return e.win.from + time.Duration(j)*arrivalGap + r.titles[j].offsetOf(next[j])
	}
	w := newSinkWatch(r.sinks)
	for {
		now := e.h.recv.now()
		if now-w.at >= sinkSample {
			w.sample(now)
		}
		j, left := -1, false
		for k := range r.titles {
			if dueOf(k) >= until {
				continue
			}
			left = true
			if !w.full(k) && (j < 0 || dueOf(k) < dueOf(j)) {
				j = k
			}
		}
		if !left {
			break
		}
		if j < 0 { // every recording with packets left waits for its sink
			if now > until+recordSettle {
				r.err = errors.New("the record sinks stayed full")
				break
			}
			time.Sleep(sinkSample)
			continue
		}
		if due := dueOf(j); due > now {
			e.sleepUntil(due)
			continue
		}
		t := r.titles[j]
		stampPacket(buf, stamp{title: t.id, seq: uint32(next[j]), off: t.offsetOf(next[j])})
		if _, err := conn.WriteToUDPAddrPort(buf, r.sinks[j]); err != nil {
			r.err = err
			break
		}
		r.sendLate.addDur(now - dueOf(j))
		w.sent(j, len(buf))
		next[j]++
		r.sent[j]++
	}
	r.settle()
	r.stopAll(e)
}

// settle waits until the MSU has read everything out of the record
// sinks' sockets. What is still queued in a sink when its recording is
// told to stop is dropped, and a recorder that is writing a page to a
// busy spindle can be hundreds of milliseconds behind its socket; a
// viewer-side benchmark should not turn the moment it chose to say Stop
// into record loss.
func (r *recorder) settle() {
	var ports []int
	for _, s := range r.sinks {
		ports = append(ports, int(s.Port()))
	}
	deadline := time.Now().Add(recordSettle)
	// Empty twice running: a packet the recorder has just taken off its
	// socket is in neither the queue nor the recording for a moment.
	for empty := 0; empty < 2 && time.Now().Before(deadline); {
		time.Sleep(sinkSample)
		drops, queued, ok := udpSockets(ports)
		if r.sinkDrops = drops; ok && queued == 0 {
			empty++
		} else {
			empty = 0
		}
	}
}

// stopAll stops every recording and watches the table of contents for
// each to appear: Stop acked → listed is the commit.
func (r *recorder) stopAll(e *engine) {
	sent := make([]time.Duration, len(r.recs))
	acked := make([]time.Duration, len(r.recs))
	for j, rec := range r.recs {
		sent[j] = e.h.recv.now()
		if err := rec.Stop(); err != nil && r.err == nil {
			r.err = fmt.Errorf("stopping %s: %w", r.titles[j].name, err)
		}
		acked[j] = e.h.recv.now()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	// A recording that was sent nothing (a window too short to reach its
	// start) is discarded by the MSU, not committed: it is never listed.
	want := 0
	for _, n := range r.sent {
		if n > 0 {
			want++
		}
	}
	listed := make(map[string]bool)
	for len(listed) < want {
		items, err := e.h.clients[0].ListContentContext(ctx)
		if err != nil {
			if r.err == nil {
				r.err = fmt.Errorf("waiting for commits: %w", err)
			}
			return
		}
		now := e.h.recv.now()
		for _, it := range items {
			for j, t := range r.titles {
				if it.Name == t.name && !listed[t.name] {
					listed[t.name] = true
					r.commit.addDur(now - acked[j])
					if e.h.tr != nil {
						id := r.recs[j].Info().Group
						e.h.tr.add(span{Name: "record.stop", ID: id, Start: sent[j], End: now, Title: t.id})
						e.h.tr.add(span{Name: "record.commit", ID: id, Parent: "record.stop", Start: acked[j], End: now})
					}
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// verify reads every committed recording back off the volume and
// checks it against what was sent: every packet once, in order, intact.
func (r *recorder) verify(h *harness, res *result) {
	res.recCommit = r.commit
	res.recSinkDrops = r.sinkDrops
	res.recSendLate = r.sendLate
	res.recErr = r.err
	for j, t := range r.titles {
		if r.sent[j] == 0 {
			continue // never started: nothing was committed, nothing is owed
		}
		res.recSent += r.sent[j]
		pkts, err := h.readBack(t.name)
		if err != nil {
			if res.recErr == nil {
				res.recErr = fmt.Errorf("reading back %s: %w", t.name, err)
			}
			continue
		}
		next := uint32(0)
		for _, pkt := range pkts {
			st, ok := readStamp(pkt.Payload)
			if !ok || st.title != t.id || st.seq < next || int64(st.seq) >= r.sent[j] {
				continue // altered, foreign, repeated or out of order
			}
			next = st.seq + 1
			res.recIntact++
		}
	}
}
