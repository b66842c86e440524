package msu

import (
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"calliope/internal/core"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// recorder is the record path (§2.3): the network process fills
// buffers from the client's UDP packets, the protocol extension module
// derives each packet's delivery time (arrival time by default,
// protocol timestamp when available), control traffic is interleaved
// with the data, and everything lands in an IB-tree on disk.
type recorder struct {
	s   *stream
	ext protocol.Extension
	w   *packetWriter // the content file, unpublished until finish

	dataConn *net.UDPConn
	ctrlConn *net.UDPConn

	mu       sync.Mutex
	started  bool
	epoch    time.Time
	lastTime time.Duration
	// dropped counts the packets lost since the last append that
	// succeeded: a full page that cannot be written stays put and every
	// later packet retries it, so a sick device is logged when it starts
	// failing and when it recovers, not once a packet.
	dropped int

	wg sync.WaitGroup
}

// newRecordStream creates the content file, reserves the estimate, and
// opens the receive sockets.
func (m *MSU) newRecordStream(spec core.StreamSpec, vol msufs.Store) (*stream, *wire.StartStreamOK, error) {
	ext, err := m.cfg.Registry.New(spec.Protocol, protocol.Config{Rate: spec.Rate})
	if err != nil {
		return nil, nil, err
	}
	s := &stream{m: m, spec: spec, speed: core.Normal}
	rec := &recorder{s: s, ext: ext}
	s.rec = rec
	set := &fileSet{m: m, disk: spec.Disk, store: vol}
	fail := func(err error) (*stream, *wire.StartStreamOK, error) {
		for _, c := range []*net.UDPConn{rec.dataConn, rec.ctrlConn} {
			if c != nil {
				c.Close() //nolint:errcheck // never handed out
			}
		}
		set.abort() //nolint:errcheck // the refusal is the error to report
		return nil, nil, err
	}
	if rec.w, err = set.packets(spec.Content, int64(spec.Reserved)); err != nil {
		return fail(err)
	}

	rec.dataConn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(m.cfg.Host)})
	if err != nil {
		return fail(fmt.Errorf("msu: opening record data socket: %w", err))
	}
	resp := &wire.StartStreamOK{DataAddr: rec.dataConn.LocalAddr().String()}
	if ext.HasControlChannel() {
		rec.ctrlConn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(m.cfg.Host)})
		if err != nil {
			return fail(fmt.Errorf("msu: opening record control socket: %w", err))
		}
		resp.CtrlAddr = rec.ctrlConn.LocalAddr().String()
	}

	rec.wg.Add(1)
	go rec.readLoop(rec.dataConn, protocol.Data)
	if rec.ctrlConn != nil {
		rec.wg.Add(1)
		go rec.readLoop(rec.ctrlConn, protocol.Control)
	}
	return s, resp, nil
}

// readLoop receives packets on one channel until stop expires the
// socket's read deadline under it.
func (r *recorder) readLoop(conn *net.UDPConn, ch protocol.Channel) {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		r.append(ch, buf[:n], time.Now())
	}
}

// drain reads out what conn's receive queue already holds, without
// waiting for more: the client sent those packets before it said stop,
// so they belong to the recording. A sender that never stops cannot hold
// the commit up: no more than the socket's receive buffer is taken,
// which is the most that can have been waiting when stop was called.
func (r *recorder) drain(conn *net.UDPConn, ch protocol.Channel) {
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // undoes stop's wake-up; a socket that refuses drains nothing
	rc, err := conn.SyscallConn()
	if err != nil {
		return
	}
	buf := make([]byte, 64*1024)
	err = rc.Read(func(fd uintptr) bool {
		limit, _ := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		for got := 0; got < limit; {
			n, _, err := syscall.Recvfrom(int(fd), buf, syscall.MSG_DONTWAIT)
			if err != nil {
				break // the queue is empty
			}
			r.append(ch, buf[:n], time.Now())
			got += max(n, 1)
		}
		return true
	})
	if err != nil {
		r.s.m.logf("stream %d: draining record socket: %v", r.s.spec.Stream, err)
	}
}

// append stores one received packet with its derived delivery time.
func (r *recorder) append(ch protocol.Channel, payload []byte, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.started {
		r.started = true
		r.epoch = now
	}
	arrival := now.Sub(r.epoch)
	var dt time.Duration
	if ch == protocol.Data {
		var err error
		dt, err = r.ext.DeliveryTime(payload, arrival)
		if err != nil {
			r.s.m.logf("stream %d: delivery time: %v (using arrival)", r.s.spec.Stream, err)
		}
	} else {
		// Control messages replay at their arrival offsets.
		dt = arrival
	}
	// The IB-tree needs non-decreasing keys; clamp reordered packets
	// to the current position.
	if dt < r.lastTime {
		dt = r.lastTime
	}
	r.lastTime = dt
	err := r.w.append(dt, ch, payload)
	switch {
	case err != nil:
		if r.dropped == 0 {
			r.s.m.logf("stream %d: append: %v (dropping packets until a write succeeds)", r.s.spec.Stream, err)
		}
		r.dropped++
	case r.dropped > 0:
		r.s.m.logf("stream %d: appending again after %d dropped packets", r.s.spec.Stream, r.dropped)
		r.dropped = 0
	}
}

// stop ends reception: the readers are woken and waited out, what the
// sockets still hold is appended, and only then are the sockets closed.
func (r *recorder) stop() {
	type sink struct {
		conn *net.UDPConn
		ch   protocol.Channel
	}
	sinks := []sink{{r.dataConn, protocol.Data}}
	if r.ctrlConn != nil {
		sinks = append(sinks, sink{r.ctrlConn, protocol.Control})
	}
	for _, s := range sinks {
		s.conn.SetReadDeadline(time.Now()) //nolint:errcheck // wakes the reader; fails only on a closed socket, whose reader is gone
	}
	r.wg.Wait()
	for _, s := range sinks {
		r.drain(s.conn, s.ch)
		s.conn.Close() //nolint:errcheck // a receive socket, just emptied
	}
}

// finish settles the recording, once, at teardown: what arrived is
// published; an empty recording (ibtree.ErrEmpty) or a failed publish is
// aborted — file removed, reservation back.
func (r *recorder) finish() {
	s := r.s
	r.stop() // nothing appends after this
	r.mu.Lock()
	dropped := r.dropped
	r.mu.Unlock()
	if dropped > 0 {
		s.m.logf("stream %d: recording ends with its last %d packets dropped", s.spec.Stream, dropped)
	}
	meta, err := r.w.publish(s.spec.Type, nil)
	if err != nil {
		rmErr := r.w.set.abort()
		s.m.logf("stream %d: recording %q discarded: %v (removal: %v)", s.spec.Stream, s.spec.Content, err, rmErr)
		return
	}
	s.m.notifyCoordinator(wire.TypeRecordingDone, wire.RecordingDone{
		Stream:  s.spec.Stream,
		Content: s.spec.Content,
		Type:    s.spec.Type,
		Disk:    s.spec.Disk,
		Length:  meta.Length,
		Size:    units.ByteSize(r.w.file.Size()),
	})
	s.m.logf("stream %d: recording %q committed (%d packets, %v)", s.spec.Stream, s.spec.Content, meta.Packets, meta.Length)
}
