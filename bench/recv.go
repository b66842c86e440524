package main

import (
	"bufio"
	"fmt"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The verifying receiver: what a viewer sees. It owns at most nproc UDP
// sockets, each drained by one goroutine, and files every datagram
// under a flow. Display ports share sockets, so a flow is told apart by
// the MSU's source address (the MSU opens one socket per stream) plus
// the title in the stamp; flows are bound to the plays that caused them
// first-come first-served per (socket, title).

// startupTransient is the head of each flow's schedule that start-up
// prices and on-time does not: the sender catches up from a late first
// page by sending behind schedule, and that is startup_*'s to report.
const startupTransient = 2 * time.Second

// pktRec is one verified datagram of a flow.
type pktRec struct {
	at  time.Duration // arrival, since the receiver's epoch
	off time.Duration // scheduled delivery offset from the stamp
	seq uint32
	n   int32 // payload bytes
}

// play is one viewer's request for a title, from the harness's side.
type play struct {
	t    title
	sock int
	// due is when the play was meant to be issued (open loop: the
	// arrival schedule; closed loop: the moment of issue); sent and
	// admitted bracket the Play RPC. All since the receiver's epoch.
	due, sent, admitted time.Duration
	stream              uint64 // the stream id PlayOK reported
	// noStartup keeps the play out of startup_*: an overload step's
	// plays start late by design.
	noStartup bool
	err       error // the play was refused or failed
	seekErr   error // the Seek command failed
	quitErr   error // the Quit command failed
	// quitAckLost: the control connection closed before Quit's
	// acknowledgement arrived (see play.quit).
	quitAckLost bool
	// end is when the harness stopped wanting packets (quit issued or
	// run over); a refused play owes every packet scheduled before it.
	end time.Duration

	// first carries the first packet's arrival to a closed-loop client
	// waiting on it; nil for open-loop plays.
	first chan time.Duration

	// seek, when the play sought: issue time, ack time, target offset.
	seekSent, seekAcked, seekTarget time.Duration
	seekHit                         time.Duration // first packet stamped at or after the target; 0 = none

	flow *flow // bound by the drain goroutine under rsock.mu
}

// seekWatch asks the drain goroutine for the first packet stamped at or
// after target.
type seekWatch struct {
	target time.Duration
	hit    chan time.Duration
}

// flow is every datagram from one MSU source address for one title.
type flow struct {
	src    netip.AddrPort
	title  uint32
	play   *play
	recs   []pktRec
	maxSeq uint32
	// closed is set by the harness once the play has been quit, so a
	// later stream that the kernel hands the same source port starts a
	// new flow instead of extending this one.
	closed atomic.Bool
	seek   atomic.Pointer[seekWatch]
}

// rsock is one receive socket and its drain goroutine's state.
type rsock struct {
	epoch time.Time
	conn  *net.UDPConn
	addr  string
	done  chan struct{}
	// last is the arrival time of the most recent datagram, for
	// quiescence detection.
	last atomic.Int64

	mu      sync.Mutex
	pending map[uint32][]*play // plays awaiting their first packet, FIFO per title

	// Owned by the drain goroutine until done closes.
	flows   map[netip.AddrPort]*flow
	all     []*flow
	corrupt int64 // datagrams with no valid stamp, a bad checksum, or another flow's title
	unbound int64 // flows no pending play accounts for
}

func newRsock(epoch time.Time) *rsock {
	return &rsock{
		epoch:   epoch,
		done:    make(chan struct{}),
		pending: make(map[uint32][]*play),
		flows:   make(map[netip.AddrPort]*flow),
	}
}

// expect queues p as awaiting its first packet. Call it before the Play
// request leaves: the first datagram can beat PlayOK home.
func (s *rsock) expect(p *play) {
	s.mu.Lock()
	s.pending[p.t.id] = append(s.pending[p.t.id], p)
	s.mu.Unlock()
}

// started reports whether p's first packet has arrived.
func (s *rsock) started(p *play) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return p.flow != nil
}

// forget withdraws a play that was refused.
func (s *rsock) forget(p *play) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.pending[p.t.id]
	for i, x := range q {
		if x == p {
			s.pending[p.t.id] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// handle files one datagram that arrived at time at.
func (s *rsock) handle(src netip.AddrPort, payload []byte, at time.Duration) {
	st, ok := readStamp(payload)
	if !ok {
		s.corrupt++
		return
	}
	f := s.flows[src]
	if f != nil && f.closed.Load() && (st.title != f.title || st.seq <= f.maxSeq) {
		f = nil // the source port went round to a new stream
	}
	if f == nil {
		f = &flow{src: src, title: st.title}
		s.flows[src] = f
		s.all = append(s.all, f)
		s.bind(f, at)
	} else if st.title != f.title {
		s.corrupt++
		return
	}
	f.recs = append(f.recs, pktRec{at: at, off: st.off, seq: st.seq, n: int32(len(payload))})
	if st.seq > f.maxSeq {
		f.maxSeq = st.seq
	}
	if w := f.seek.Load(); w != nil && st.off >= w.target && f.seek.CompareAndSwap(w, nil) {
		w.hit <- at
	}
}

// bind hands a new flow to the oldest play still waiting for its title
// on this socket.
func (s *rsock) bind(f *flow, at time.Duration) {
	s.mu.Lock()
	q := s.pending[f.title]
	if len(q) == 0 {
		s.mu.Unlock()
		s.unbound++
		return
	}
	p := q[0]
	s.pending[f.title] = q[1:]
	f.play = p
	p.flow = f
	s.mu.Unlock()
	if p.first != nil {
		p.first <- at
	}
}

// drain reads the socket until it closes.
func (s *rsock) drain() {
	defer close(s.done)
	buf := make([]byte, 64<<10)
	for {
		n, src, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		at := time.Since(s.epoch)
		s.last.Store(int64(at))
		s.handle(src, buf[:n], at)
	}
}

// receiver is the set of receive sockets.
type receiver struct {
	epoch time.Time
	socks []*rsock
}

// recvBuffer is the socket buffer asked for: a stream that is behind
// schedule sends a whole 256 KB page back to back, and several can do
// so at once.
const recvBuffer = 4 << 20

func newReceiver(nsocks int, epoch time.Time) (*receiver, error) {
	r := &receiver{epoch: epoch}
	for i := 0; i < nsocks; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("bench: opening receive socket: %w", err)
		}
		if err := conn.SetReadBuffer(recvBuffer); err != nil {
			conn.Close() //nolint:errcheck // the SetReadBuffer error is the one reported
			r.close()
			return nil, fmt.Errorf("bench: sizing receive socket: %w", err)
		}
		s := newRsock(r.epoch)
		s.conn = conn
		s.addr = conn.LocalAddr().String()
		r.socks = append(r.socks, s)
		go s.drain()
	}
	return r, nil
}

func (r *receiver) now() time.Duration { return time.Since(r.epoch) }

// quiesce waits until no socket has seen a datagram for idle, or
// timeout passes.
func (r *receiver) quiesce(idle, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		quiet := true
		now := r.now()
		for _, s := range r.socks {
			if now-time.Duration(s.last.Load()) < idle {
				quiet = false
			}
		}
		if quiet {
			return
		}
		time.Sleep(idle / 4)
	}
}

// close stops the drain goroutines and waits for them; after it the
// flows are safe to read.
func (r *receiver) close() {
	for _, s := range r.socks {
		s.conn.Close() //nolint:errcheck // unblocks the drain goroutine; nothing to report
		<-s.done
	}
}

// ports lists the sockets' local UDP ports.
func (r *receiver) ports() []int {
	var out []int
	for _, s := range r.socks {
		out = append(out, s.conn.LocalAddr().(*net.UDPAddr).Port)
	}
	return out
}

// udpSock is one row of /proc/net/udp: the kernel's drop counter (the
// last column) and the bytes queued for reading (rx_queue, as the kernel
// charges them: a 4 KB datagram costs 8.25 KB).
type udpSock struct{ drops, queued int64 }

// udpTable reads /proc/net/udp for the given local UDP ports. ok is
// false when the table cannot be read, so the guard says "unknown" rather
// than "none".
func udpTable(ports []int) (socks map[int]udpSock, ok bool) {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return nil, false
	}
	defer f.Close() //nolint:errcheck // read-only
	socks = make(map[int]udpSock, len(ports))
	for _, p := range ports {
		socks[p] = udpSock{}
	}
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		// sl local_address rem_address st tx_queue:rx_queue ... drops
		fields := strings.Fields(sc.Text())
		if len(fields) < 13 {
			continue
		}
		_, hexPort, found := strings.Cut(fields[1], ":")
		if !found {
			continue
		}
		port, err := strconv.ParseInt(hexPort, 16, 32)
		if err != nil {
			continue
		}
		sock, wanted := socks[int(port)]
		if !wanted {
			continue
		}
		d, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			return nil, false
		}
		_, hexRx, found := strings.Cut(fields[4], ":")
		rx, err := strconv.ParseInt(hexRx, 16, 64)
		if !found || err != nil {
			return nil, false
		}
		socks[int(port)] = udpSock{sock.drops + d, sock.queued + rx}
	}
	return socks, sc.Err() == nil
}

// udpSockets sums udpTable over the ports.
func udpSockets(ports []int) (drops, queued int64, ok bool) {
	socks, ok := udpTable(ports)
	for _, s := range socks {
		drops += s.drops
		queued += s.queued
	}
	return drops, queued, ok
}
