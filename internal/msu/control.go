package msu

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"calliope/internal/core"
	"calliope/internal/wire"
)

// The control plane's shell: the Coordinator's RPCs and the clients' VCR
// requests become inputs to the core (engine.go), fed one at a time by
// step, and the core's decisions are carried out here.

// serve decodes a request body into a T and answers it with f.
func serve[T any](body json.RawMessage, f func(T) (any, error)) (any, error) {
	var req T
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrBadRequest, err)
	}
	return f(req)
}

// handle serves Coordinator RPCs.
func (m *MSU) handle(msgType string, body json.RawMessage) (any, error) {
	switch msgType {
	case wire.TypeStartStream:
		return serve(body, func(r wire.StartStream) (any, error) { return m.startStream(r.Specs) })
	case wire.TypeStopStream:
		return serve(body, func(r wire.StopStream) (any, error) {
			m.step(func(time.Time) { m.eng.stop(r.Stream, "coordinator stop") })
			return nil, nil
		})
	case wire.TypeDeleteContent:
		return serve(body, func(r wire.DeleteContent) (any, error) { return nil, m.deleteContent(r.Content) })
	case wire.TypeReplicate:
		return serve(body, func(r wire.Replicate) (any, error) { return nil, m.handleReplicate(r) })
	case wire.TypeReplicateAbort:
		return serve(body, func(r wire.ReplicateAbort) (any, error) {
			m.step(func(time.Time) { m.eng.abortReplication(r.ID) })
			return nil, nil
		})
	default:
		return nil, fmt.Errorf("%w: unknown message %q", core.ErrBadRequest, msgType)
	}
}

// deleteContent removes an item and its fast-scan companions.
func (m *MSU) deleteContent(name string) error {
	inUse := false
	m.step(func(time.Time) { inUse = m.eng.inUse(name) })
	if inUse {
		return fmt.Errorf("%w: %q", core.ErrContentInUse, name)
	}
	for disk, store := range m.stores {
		if st, err := store.Stat(name); err == nil {
			// Title first: cut short, the companions left are swept at next start.
			return (&fileSet{m: m, disk: disk, store: store, names: itemFiles(st)}).abort()
		}
	}
	return fmt.Errorf("%w: %q", core.ErrNoSuchContent, name)
}

// startStream starts a stream group (play or record): it builds every
// member's sockets and content handles, then the core admits the whole
// group in one input. A member that cannot be built, or a group the core
// refuses, closes every member built, and the reply is one error.
func (m *MSU) startStream(specs []core.StreamSpec) ([]wire.StartStreamOK, error) {
	ss := make([]*stream, 0, len(specs))
	resps := make([]wire.StartStreamOK, len(specs))
	for i, spec := range specs {
		s, err := m.newStream(spec, &resps[i])
		if err != nil {
			for _, s := range ss {
				s.teardown()
			}
			return nil, err
		}
		ss = append(ss, s)
	}
	if a := m.wait(func(now time.Time, tk uint64) { m.eng.start(now, tk, ss) }); a.err != nil {
		m.logf("start of %d streams failed: %v", len(specs), a.err)
		return nil, a.err
	}
	m.obs.streams.Add(int64(len(ss)))
	m.logf("group %d started: %d streams, %q first", specs[0].Group, len(specs), specs[0].Content)
	return resps, nil
}

// newStream builds one member; a recording's addresses go in resp.
func (m *MSU) newStream(spec core.StreamSpec, resp *wire.StartStreamOK) (*stream, error) {
	switch err := spec.Validate(); {
	case err != nil:
		return nil, err
	case spec.Disk >= len(m.stores):
		return nil, fmt.Errorf("%w: disk %d of %d", core.ErrBadRequest, spec.Disk, len(m.stores))
	case spec.Record:
		return m.newRecordStream(spec, m.stores[spec.Disk], resp)
	}
	return m.newPlayStream(spec, m.stores[spec.Disk])
}

// handleVCR serves the VCR requests on group gid's control connection,
// each on its own goroutine. A quit's acknowledgement is on the wire
// before the teardown it starts closes the connection.
func (m *MSU) handleVCR(gid core.StreamID, msgType string, body json.RawMessage) (any, error) {
	if msgType != wire.TypeVCR {
		return nil, fmt.Errorf("%w: unexpected %q on VCR connection", core.ErrBadRequest, msgType)
	}
	return serve(body, func(cmd wire.VCR) (any, error) {
		a := m.wait(func(_ time.Time, tk uint64) { m.eng.vcr(tk, gid, cmd.Op, cmd.Pos) })
		switch {
		case a.err != nil:
			return nil, a.err
		case a.quit:
			return wire.Reply{
				Body: &wire.VCRAck{Pos: a.ss[0].position(), Speed: core.Normal.String()},
				Then: func() { m.step(func(time.Time) { m.eng.quitAcked(gid, "client quit") }) },
			}, nil
		default:
			return a.body, nil // the ack step read
		}
	})
}

// A message is a decision with the connection it goes on, looked up as it
// was made.
type message struct {
	action
	peer *wire.Peer
}

// step feeds one input to the core under m.mu, handing it the time, and
// carries out what it decided. Under the lock the report clock is armed
// and the answers are handed to their requests. After it, the messages to
// the Coordinator are sent in decision order — by this goroutine, unless
// another is at it already (drain) — and the rest runs here, in order.
// The outcomes of the work are the next inputs, fed in turn.
func (m *MSU) step(in func(now time.Time)) {
	var wbuf, obuf [1]message // an input hands out one piece of work at most, but for Close
	outs := obuf[:0]
	for {
		work := wbuf[:0]
		m.mu.Lock()
		now := time.Now()
		if in != nil {
			in(now)
			in = nil
		} else {
			m.feed(&outs[0])
			outs = append(outs[:0], outs[1:]...)
		}
		acts := m.eng.take()
		for i := range acts {
			switch a := &acts[i]; a.kind {
			case actArm:
				m.wg.Add(1) // until the tick has run, or Close has stopped it
				m.clock = time.AfterFunc(a.at.Sub(now), m.reportTick)
			case actAnswer:
				if a.ss != nil && !a.quit && a.err == nil {
					// A VCR command's ack, read before the members can take
					// the next command.
					a.body = &wire.VCRAck{Pos: a.ss[0].position(), Speed: a.ss[0].cue.speed.String()}
				}
				m.waiters[a.tk] <- *a // buffered for its one answer
				delete(m.waiters, a.tk)
			case actAttach, actEOF, actCloseCtl:
				work = append(work, message{*a, m.ctls[a.group]})
				if a.kind == actCloseCtl {
					delete(m.ctls, a.group)
				}
			case actReport, actNote, actDrained:
				m.fifo = append(m.fifo, message{*a, m.peer})
			case actJob:
				m.wg.Add(1)
				fallthrough
			default:
				work = append(work, message{action: *a})
			}
		}
		drain := !m.draining && len(m.fifo) > 0
		m.draining = m.draining || drain
		m.mu.Unlock()
		if drain {
			m.drain()
		}
		for i := range work {
			if m.carry(&work[i]) {
				outs = append(outs, work[i])
			}
		}
		if len(outs) == 0 {
			return
		}
	}
}

// feed hands the core a piece of work's outcome (carry). Callers hold
// m.mu.
func (m *MSU) feed(o *message) {
	switch o.kind {
	case actDial:
		if o.err == nil {
			m.ctls[o.group] = o.peer
		}
		m.eng.dialed(o.group, o.tk, o.n, o.err)
	case actCommand:
		m.eng.commanded(o.group, o.tk, o.err)
	default: // actTeardown
		commits, _ := o.body.([]wire.RecordingDone)
		m.eng.tornDown(o.group, commits)
	}
}

// replies recycles the channels requests wait on for their one answer.
var replies = sync.Pool{New: func() any { return make(chan action, 1) }}

// wait feeds an input a request waits on, handing it the request's
// ticket, and returns the core's answer.
func (m *MSU) wait(in func(now time.Time, tk uint64)) action {
	ch := replies.Get().(chan action)
	m.step(func(now time.Time) {
		m.tickets++
		m.waiters[m.tickets] = ch
		in(now, m.tickets)
	})
	a := <-ch
	replies.Put(ch)
	return a
}

// reportTick is the report clock's tick, which held a count on m.wg.
func (m *MSU) reportTick() {
	defer m.wg.Done()
	m.step(func(now time.Time) {
		m.clock = nil
		m.eng.tick(now)
	})
}

// drain sends the queued messages in order until none is left.
func (m *MSU) drain() {
	m.mu.Lock()
	for len(m.fifo) > 0 {
		batch := m.fifo
		m.fifo, m.spare = m.spare, nil
		m.mu.Unlock()
		for i := range batch {
			m.carry(&batch[i])
		}
		clear(batch)
		m.mu.Lock()
		m.spare = batch[:0]
	}
	m.draining = false
	m.mu.Unlock()
}

// carry carries out one decision. A piece of work leaves its outcome in
// msg — its error, a dial's connection, a teardown's commits (body) — and
// reports true.
func (m *MSU) carry(msg *message) bool {
	switch a, p := &msg.action, msg.peer; a.kind {
	case actDial:
		msg.peer, a.err = m.dial(a)
		return true
	case actCommand:
		a.err = vcr(a.ss, a.op, a.pos, a.cue)
		return true
	case actTeardown:
		var commits []wire.RecordingDone
		for _, s := range a.ss {
			if done := s.teardown(); done != nil {
				commits = append(commits, *done)
			}
		}
		a.body = commits
		m.logf("group %d terminated: %s", a.ss[0].spec.Group, a.cause)
		return true
	case actDiscard:
		for _, s := range a.ss {
			s.teardown()
		}
	case actJob:
		go a.job.run()
	case actAbort:
		a.job.cancel() // severs an inbound copy; its job cleans up
	case actAttach:
		p.Start()
	case actEOF:
		p.Notify(wire.TypeStreamEOF, wire.StreamEOF{Group: a.ss[0].spec.Group, Pos: a.ss[0].position()}) //nolint:errcheck // a lost client ends the group
	case actCloseCtl:
		p.Close() //nolint:errcheck // teardown: the client is gone or leaving; nothing to report to
	case actReport:
		m.reportCache(p, a.disk, a.seq)
	case actNote:
		if p != nil {
			p.Notify(a.typ, a.body) //nolint:errcheck // link loss handled by reconnect
		}
	case actDrained:
		close(m.drained)
	}
	return false
}

// clientDialBackoff is the wait before the first redial of a client's
// control port: one dropped SYN must not kill a group the Coordinator has
// reserved resources for.
const clientDialBackoff = 50 * time.Millisecond

// dial makes attempt a.n at a group's control port, a retry after a
// backoff, and sends the hello before the core decides whether to attach
// the connection: the hello is first on it, even if a member reaches its
// end meanwhile.
func (m *MSU) dial(a *action) (*wire.Peer, error) {
	if a.n > 0 {
		t := time.NewTimer((&wire.Backoff{Base: clientDialBackoff << (a.n - 1), Cap: time.Second}).Next())
		select {
		case <-m.ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("dialing %s: msu shutting down", a.op)
		case <-t.C:
		}
	}
	conn, err := m.cfg.Dial("tcp", a.op)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", a.op, err)
	}
	gid := a.group
	peer := wire.NewPeerStopped(conn, func(msgType string, body json.RawMessage) (any, error) {
		return m.handleVCR(gid, msgType, body)
	}, func(error) {
		// A dead control connection ends the group; the Coordinator then
		// reclaims the resources.
		m.step(func(time.Time) { m.eng.quitAcked(gid, "client control connection lost") })
	})
	hello := wire.VCRHello{Group: a.ss[0].spec.Group}
	for _, s := range a.ss {
		hello.Length = max(hello.Length, s.length)
		hello.Streams = append(hello.Streams, wire.StreamInfo{Stream: s.spec.Stream, Content: s.spec.Content, Type: s.spec.Type})
	}
	if err := peer.Notify(wire.TypeVCRHello, hello); err != nil {
		conn.Close() //nolint:errcheck // the send already failed
		return nil, err
	}
	return peer, nil
}
