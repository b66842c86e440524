package msu

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"

	"calliope/internal/core"
	"calliope/internal/ibtree"
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
	s    *stream
	file msufs.StoreFile
	ext  protocol.Extension

	dataConn *net.UDPConn
	ctrlConn *net.UDPConn

	mu       sync.Mutex
	builder  *ibtree.Builder
	started  bool
	epoch    time.Time
	lastTime time.Duration
	packets  int64
	stopped  bool

	wg sync.WaitGroup
}

// newRecordStream creates the content file, reserves the estimate, and
// opens the receive sockets.
func (m *MSU) newRecordStream(spec core.StreamSpec, vol msufs.Store) (*stream, *wire.StartStreamOK, error) {
	ext, err := m.cfg.Registry.New(spec.Protocol, protocol.Config{Rate: spec.Rate})
	if err != nil {
		return nil, nil, err
	}
	file, err := vol.Create(spec.Content, int64(spec.Reserved), map[string]string{
		AttrType: spec.Type,
	})
	if err != nil {
		return nil, nil, err
	}
	builder, err := ibtree.NewBuilder(file, vol.BlockSize(), 0)
	if err != nil {
		vol.Remove(spec.Content) //nolint:errcheck
		return nil, nil, err
	}

	s := &stream{m: m, spec: spec, vol: vol, speed: core.Normal}
	rec := &recorder{s: s, file: file, ext: ext, builder: builder}
	s.rec = rec

	fail := func(err error) (*stream, *wire.StartStreamOK, error) {
		if rec.dataConn != nil {
			rec.dataConn.Close()
		}
		if rec.ctrlConn != nil {
			rec.ctrlConn.Close()
		}
		vol.Remove(spec.Content) //nolint:errcheck
		return nil, nil, err
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
	if err := r.builder.Append(ibtree.Packet{Time: dt, Payload: protocol.EncodeStored(ch, payload)}); err != nil {
		r.s.m.logf("stream %d: append: %v", r.s.spec.Stream, err)
		return
	}
	r.packets++
}

// stop ends reception without committing (finishRecording commits; a
// teardown after it, or an abort, finds the recorder already stopped):
// the readers are woken and waited out, what the sockets still hold is
// appended, and only then are the sockets closed.
func (r *recorder) stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
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

// finishRecording commits a recorder stream; a no-op for players.
// Empty recordings are deleted rather than committed.
func (s *stream) finishRecording() {
	if s.rec == nil {
		return
	}
	r := s.rec
	r.stop()
	r.mu.Lock()
	packets := r.packets
	builder := r.builder
	r.mu.Unlock()

	if packets == 0 {
		s.vol.Remove(s.spec.Content) //nolint:errcheck
		s.m.logf("stream %d: empty recording %q discarded", s.spec.Stream, s.spec.Content)
		return
	}
	meta, err := builder.Finalize()
	if err != nil {
		s.m.logf("stream %d: finalize: %v", s.spec.Stream, err)
		s.vol.Remove(s.spec.Content) //nolint:errcheck
		return
	}
	rawMeta, err := json.Marshal(meta)
	if err != nil {
		s.m.logf("stream %d: encoding metadata: %v", s.spec.Stream, err)
		return
	}
	if err := r.file.Commit(); err != nil {
		s.m.logf("stream %d: commit: %v", s.spec.Stream, err)
		return
	}
	for k, v := range map[string]string{
		AttrTree:   string(rawMeta),
		AttrLength: strconv.FormatInt(int64(meta.Length), 10),
	} {
		if err := s.vol.SetAttr(s.spec.Content, k, v); err != nil {
			s.m.logf("stream %d: attr %s: %v", s.spec.Stream, k, err)
			return
		}
	}
	s.m.notifyCoordinator(wire.TypeRecordingDone, wire.RecordingDone{
		Stream:  s.spec.Stream,
		Content: s.spec.Content,
		Type:    s.spec.Type,
		Disk:    s.spec.Disk,
		Length:  meta.Length,
		Size:    units.ByteSize(r.file.Size()),
	})
	s.m.logf("stream %d: recording %q committed (%d packets, %v)", s.spec.Stream, s.spec.Content, packets, meta.Length)
}
