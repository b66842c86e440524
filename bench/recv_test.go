package main

import (
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"
)

// The receiver and its analysis, on synthetic arrivals: no sockets, no
// cluster, just datagrams handed to rsock.handle at chosen times.

var (
	srcA = netip.MustParseAddrPort("127.0.0.1:40001")
	srcB = netip.MustParseAddrPort("127.0.0.1:40002")
	srcC = netip.MustParseAddrPort("127.0.0.1:40003")
)

func testTitle(id uint32) title {
	return title{id: id, name: "t", ctype: typeSD, rate: rateSD, pktSize: 1024, length: 10 * time.Second}
}

func testReceiver() (*receiver, *rsock) {
	s := newRsock(time.Now())
	return &receiver{epoch: s.epoch, socks: []*rsock{s}}, s
}

func datagram(t title, seq int) []byte {
	buf := make([]byte, t.pktSize)
	stampPacket(buf, stamp{title: t.id, seq: uint32(seq), off: t.offsetOf(seq)})
	return buf
}

// wholeRun is a window wide enough to hold any test's arrivals.
var wholeRun = window{from: 0, to: time.Hour}

// feed delivers seqs of t from src, each delay(seq) behind its schedule,
// the schedule starting at base.
func feed(s *rsock, src netip.AddrPort, t title, base time.Duration, seqs []int, delay func(seq int) time.Duration) {
	for _, seq := range seqs {
		s.handle(src, datagram(t, seq), base+t.offsetOf(seq)+delay(seq))
	}
}

func seqRange(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

func noDelay(int) time.Duration { return 0 }

func TestStampRoundTrip(t *testing.T) {
	tt := testTitle(7)
	p := datagram(tt, 42)
	st, ok := readStamp(p)
	if !ok || st.title != 7 || st.seq != 42 || st.off != tt.offsetOf(42) {
		t.Fatalf("readStamp = %+v, %v", st, ok)
	}
	p[100] ^= 1
	if _, ok := readStamp(p); ok {
		t.Fatal("a flipped payload bit passed the checksum")
	}
	if _, ok := readStamp(p[:10]); ok {
		t.Fatal("a truncated packet passed")
	}
}

func TestLossDuplicateReorder(t *testing.T) {
	r, s := testReceiver()
	tt := testTitle(1)
	p := &play{t: tt}
	s.expect(p)
	seqs := seqRange(0, 1000)
	seqs = append(seqs[:500], seqs[502:]...) // 500 and 501 never arrive
	for i, q := range seqs {
		if q == 700 { // 700 and 701 swap places on the wire
			seqs[i], seqs[i+1] = seqs[i+1], seqs[i]
			break
		}
	}
	feed(s, srcA, tt, time.Second, seqs, noDelay)
	s.handle(srcA, datagram(tt, 600), 20*time.Second) // 600 arrives twice

	vs := analyse(r, []*play{p}, wholeRun)
	if vs.intact != 998 || vs.lost != 2 || vs.gaps != 2 || vs.dups != 1 || vs.reordered != 1 || vs.corrupt != 0 {
		t.Fatalf("intact %d lost %d gaps %d dups %d reordered %d corrupt %d; want 998 2 2 1 1 0",
			vs.intact, vs.lost, vs.gaps, vs.dups, vs.reordered, vs.corrupt)
	}
	// The lost packets sit past the transient, so they count as not on
	// time: everything that arrived was punctual, yet on-time is below 100.
	if vs.counted != vs.within50+2 || vs.ontime50() >= 100 {
		t.Fatalf("counted %d within50 %d ontime50 %.3f: lost packets must count as late", vs.counted, vs.within50, vs.ontime50())
	}
	if got := vs.delivered(); got >= 100 || got < 99 {
		t.Fatalf("delivered = %.3f, want just under 100", got)
	}
}

func TestCorruptStamp(t *testing.T) {
	r, s := testReceiver()
	tt, other := testTitle(1), testTitle(2)
	p := &play{t: tt}
	s.expect(p)
	feed(s, srcA, tt, 0, seqRange(0, 10), noDelay)
	bad := datagram(tt, 10)
	bad[len(bad)/2] ^= 0xFF
	s.handle(srcA, bad, time.Second)                 // fails its checksum
	s.handle(srcA, datagram(other, 11), time.Second) // intact, but another title's stamp on this flow
	s.handle(srcA, []byte("not a stamp"), time.Second)
	feed(s, srcA, tt, 0, seqRange(12, 20), noDelay)

	vs := analyse(r, []*play{p}, wholeRun)
	if vs.corrupt != 3 {
		t.Fatalf("corrupt = %d, want 3", vs.corrupt)
	}
	// The two stamped packets that were unusable leave a gap of two.
	if vs.intact != 18 || vs.gaps != 2 {
		t.Fatalf("intact %d gaps %d, want 18 and 2", vs.intact, vs.gaps)
	}
}

func TestAnchorAtLeastDelayedPacket(t *testing.T) {
	r, s := testReceiver()
	tt := testTitle(1)
	p := &play{t: tt}
	s.expect(p)
	// Every packet is 10 ms behind the sender's schedule except one, deep
	// in the flow, that is on it. The receiver does not know the sender's
	// schedule; it anchors at that packet, so the rest read 10 ms late.
	prompt := 900
	feed(s, srcA, tt, time.Second, seqRange(0, 1500), func(seq int) time.Duration {
		if seq == prompt {
			return 0
		}
		return 10 * time.Millisecond
	})
	vs := analyse(r, []*play{p}, wholeRun)
	if vs.within50 != vs.counted {
		t.Fatalf("within50 %d of %d: 10 ms is within 50", vs.within50, vs.counted)
	}
	if vs.within5 != 1 {
		t.Fatalf("within5 = %d, want only the anchoring packet", vs.within5)
	}
	if got := median(vs.late); got < 9.99 || got > 10.01 {
		t.Fatalf("median lateness %.3f ms, want 10", got)
	}
	for _, l := range vs.late {
		if l < 0 {
			t.Fatalf("negative lateness %.3f", l)
		}
	}
}

func TestStartupTransientExcluded(t *testing.T) {
	r, s := testReceiver()
	tt := testTitle(1)
	p := &play{t: tt, due: time.Second - 300*time.Millisecond}
	s.expect(p)
	// The sender starts 200 ms behind and catches up over the first two
	// seconds of the schedule; from there on it is punctual.
	feed(s, srcA, tt, time.Second, seqRange(0, 1500), func(seq int) time.Duration {
		if off := tt.offsetOf(seq); off < startupTransient {
			return 200 * time.Millisecond * time.Duration(startupTransient-off) / time.Duration(startupTransient)
		}
		return 0
	})
	vs := analyse(r, []*play{p}, wholeRun)
	past := 0
	for seq := 0; seq < 1500; seq++ {
		if tt.offsetOf(seq) >= startupTransient {
			past++
		}
	}
	if int(vs.counted) != past {
		t.Fatalf("counted %d packets, want the %d past the transient", vs.counted, past)
	}
	if vs.ontime5() != 100 {
		t.Fatalf("ontime5 = %.3f: the transient leaked into on-time", vs.ontime5())
	}
	// Start-up prices what on-time leaves out: due → first packet.
	if got := vs.startup[0]; got < 499.9 || got > 500.1 {
		t.Fatalf("startup = %.3f ms, want 300 ms to the schedule's start plus 200 ms behind it", got)
	}
}

func TestOntimeWindow(t *testing.T) {
	r, s := testReceiver()
	tt := testTitle(1)
	p := &play{t: tt}
	s.expect(p)
	// Punctual until the schedule passes 5 s, 80 ms late from there: with
	// the on-time stretch ending at 5 s none of the late ones count.
	feed(s, srcA, tt, 0, seqRange(0, 1800), func(seq int) time.Duration {
		if tt.offsetOf(seq) >= 5*time.Second {
			return 80 * time.Millisecond
		}
		return 0
	})
	w := window{from: 0, to: time.Hour, ontimeTo: 5 * time.Second}
	if vs := analyse(r, []*play{p}, w); vs.ontime50() != 100 {
		t.Fatalf("ontime50 = %.3f with the stretch ending before the late packets", vs.ontime50())
	}
	if vs := analyse(r, []*play{p}, wholeRun); vs.ontime50() >= 100 {
		t.Fatalf("ontime50 = %.3f over the whole run, want below 100", vs.ontime50())
	}
}

func TestBindingSharedTitleAndSocket(t *testing.T) {
	r, s := testReceiver()
	hot, other := testTitle(1), testTitle(2)
	first := &play{t: hot, due: 0}
	second := &play{t: hot, due: 250 * time.Millisecond}
	third := &play{t: other, due: 300 * time.Millisecond}
	for _, p := range []*play{first, second, third} {
		s.expect(p)
	}
	// Three MSU sockets, one receive socket, two of the flows the same
	// title: each new flow goes to the oldest play still waiting for it.
	feed(s, srcB, other, 400*time.Millisecond, seqRange(0, 5), noDelay)
	feed(s, srcA, hot, 100*time.Millisecond, seqRange(0, 5), noDelay)
	feed(s, srcC, hot, 500*time.Millisecond, seqRange(0, 5), noDelay)
	feed(s, srcA, hot, 100*time.Millisecond, seqRange(5, 10), noDelay)
	if first.flow == nil || first.flow.src != srcA {
		t.Fatalf("the first play of the shared title got %+v, want the flow from %v", first.flow, srcA)
	}
	if second.flow == nil || second.flow.src != srcC {
		t.Fatalf("the second play of the shared title got %+v, want the flow from %v", second.flow, srcC)
	}
	if third.flow == nil || third.flow.src != srcB {
		t.Fatalf("the other title's play got %+v, want the flow from %v", third.flow, srcB)
	}
	if len(first.flow.recs) != 10 {
		t.Fatalf("the first flow holds %d packets, want 10", len(first.flow.recs))
	}
	vs := analyse(r, []*play{first, second, third}, wholeRun)
	if vs.unbound != 0 || vs.flows != 3 || len(vs.startup) != 3 {
		t.Fatalf("unbound %d flows %d startups %d, want 0 3 3", vs.unbound, vs.flows, len(vs.startup))
	}
	// A flow nobody asked for is reported, not quietly adopted.
	feed(s, netip.MustParseAddrPort("127.0.0.1:40009"), hot, time.Second, seqRange(0, 3), noDelay)
	if vs := analyse(r, []*play{first, second, third}, wholeRun); vs.unbound != 1 {
		t.Fatalf("unbound = %d after a stray flow, want 1", vs.unbound)
	}
}

func TestRefusedPlayForgottenAndOwed(t *testing.T) {
	r, s := testReceiver()
	tt := testTitle(1)
	refused := &play{t: tt, due: 0, err: errors.New("refused"), end: 4 * time.Second}
	next := &play{t: tt, due: time.Second}
	s.expect(refused)
	s.forget(refused)
	s.expect(next)
	feed(s, srcA, tt, time.Second, seqRange(0, 10), noDelay)
	if next.flow == nil || refused.flow != nil {
		t.Fatal("the flow went to the refused play")
	}
	vs := analyse(r, []*play{refused, next}, wholeRun)
	owed := int64(0)
	for off := time.Duration(0); off < 4*time.Second; off += tt.interval() {
		owed++
	}
	if vs.playsFailed != 1 || vs.lost != owed || vs.gaps != 0 {
		t.Fatalf("playsFailed %d lost %d gaps %d; want 1, %d owed packets, 0", vs.playsFailed, vs.lost, vs.gaps, owed)
	}
	if vs.counted == 0 || vs.ontime50() != 0 {
		t.Fatalf("counted %d ontime50 %.1f: a refused play's packets are all late", vs.counted, vs.ontime50())
	}
}

func TestSeekSplitsTheSchedule(t *testing.T) {
	r, s := testReceiver()
	tt := testTitle(1)
	p := &play{t: tt, first: make(chan time.Duration, 1)}
	s.expect(p)
	feed(s, srcA, tt, time.Second, seqRange(0, 3), noDelay)
	if at := <-p.first; at != time.Second {
		t.Fatalf("first packet reported at %v, want 1s", at)
	}
	target := tt.offsetOf(1000)
	w := &seekWatch{target: target, hit: make(chan time.Duration, 1)}
	p.seekTarget, p.seekSent, p.seekAcked = target, 1100*time.Millisecond, 1101*time.Millisecond
	p.flow.seek.Store(w)
	s.handle(srcA, datagram(tt, 3), 1102*time.Millisecond) // still the old position: not a hit
	select {
	case <-w.hit:
		t.Fatal("a packet before the target satisfied the seek")
	default:
	}
	// The MSU restarts delivery at the target: a new schedule, anchored
	// at the seek, 1.1 s into the run rather than 1 s + 5.4 s.
	for i, seq := range seqRange(1000, 1005) {
		s.handle(srcA, datagram(tt, seq), 1103*time.Millisecond+time.Duration(i)*tt.interval())
	}
	p.seekHit = <-w.hit
	if p.seekHit != 1103*time.Millisecond {
		t.Fatalf("seek hit at %v, want 1.103s", p.seekHit)
	}
	vs := analyse(r, []*play{p}, wholeRun)
	if vs.lost != 0 || vs.intact != 9 {
		t.Fatalf("lost %d intact %d: the jump to the target is not loss", vs.lost, vs.intact)
	}
	if got := vs.seek[0]; got < 2.99 || got > 3.01 {
		t.Fatalf("seek = %.3f ms, want 3", got)
	}
}

func TestSourcePortReuse(t *testing.T) {
	r, s := testReceiver()
	tt := testTitle(1)
	a, b := &play{t: tt}, &play{t: tt}
	s.expect(a)
	feed(s, srcA, tt, 0, seqRange(0, 4), noDelay)
	a.flow.closed.Store(true)
	s.handle(srcA, datagram(tt, 4), time.Second) // a straggler of the quit stream: still flow a's
	s.expect(b)
	feed(s, srcA, tt, 2*time.Second, seqRange(0, 3), noDelay) // the port comes round again
	if b.flow == nil || b.flow == a.flow {
		t.Fatal("a reused source port extended the old flow")
	}
	if len(a.flow.recs) != 5 || len(b.flow.recs) != 3 {
		t.Fatalf("flows hold %d and %d packets, want 5 and 3", len(a.flow.recs), len(b.flow.recs))
	}
	if vs := analyse(r, []*play{a, b}, wholeRun); vs.dups != 0 || vs.lost != 0 || vs.flows != 2 {
		t.Fatalf("dups %d lost %d flows %d, want 0 0 2", vs.dups, vs.lost, vs.flows)
	}
}

// The sink watch against a real socket nobody reads: its estimate is
// never under what the kernel says is queued, it calls the sink full
// before the default buffer can overflow, and nothing is dropped on the
// way there.
func TestSinkWatchHoldsBeforeTheBufferFills(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close() //nolint:errcheck // test socket
	addr := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	if _, ok := udpTable([]int{int(addr.Port())}); !ok {
		t.Skip("/proc/net/udp cannot be read here")
	}
	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close() //nolint:errcheck // test socket

	w := newSinkWatch([]netip.AddrPort{addr})
	buf := make([]byte, 4096)
	sent := 0
	for ; !w.full(0) && sent < 1000; sent++ {
		if _, err := src.WriteToUDPAddrPort(buf, addr); err != nil {
			t.Fatal(err)
		}
		w.sent(0, len(buf))
	}
	if sent < 4 || sent == 1000 {
		t.Fatalf("the watch called the sink full after %d datagrams", sent)
	}
	estimate := w.queued[0]
	w.sample(0)
	socks, _ := udpTable(w.ports)
	got := socks[w.ports[0]]
	if got.drops != 0 {
		t.Errorf("%d datagrams dropped before the watch held", got.drops)
	}
	if got.queued < int64(sent*len(buf)) || got.queued > estimate {
		t.Errorf("kernel queued %d bytes for %d datagrams; the watch's estimate was %d", got.queued, sent, estimate)
	}
}
