package msu

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"calliope/internal/core"
	"calliope/internal/wire"
)

// engine is the MSU's control core (see the package comment): the group
// and stream tables, each group's command in flight and the requests
// queued behind it, each disk's play streams, the report clock and its
// numbers, and the inbound replication jobs.
type engine struct {
	streams map[core.StreamID]member
	groups  map[core.StreamID]*group // by their start's first stream
	// playing counts each disk's play streams; the report clock runs while
	// any do. clock is whether a tick is due, seq the last report's number.
	playing []int
	clock   bool
	seq     uint64
	repl    map[uint64]*replJob // inbound copies by Coordinator-assigned transfer id
	closed  bool
	out     []action
}

// group is a stream group (§2.2): the streams started together for one
// (possibly composite) content item, controlled by a single VCR
// connection so that commands start and stop all members together. All
// members live on this MSU — the Coordinator never splits a group. It is
// keyed by its first stream: each start, a re-dispatch's too, names new ones.
type group struct {
	id      core.StreamID
	members []*stream // in the order StartStream named them
	ctl     bool      // its control connection is attached: its start was answered OK
	// busy is a command with the members — their first start (beginOp), a
	// VCR command, their teardown, or a quit whose acknowledgement is not
	// yet on the wire (acking) — and queue the requests behind it.
	busy, acking bool
	queue        []action
	// Play cues are numbered: cues so far, the one the command in flight
	// starts (0 for a pause), the one the members play, and the one whose
	// end the client was told of.
	cues, next, cue, eofCue uint64
	cause                   string // why the group is quit; "" while it is not
}

// member is a stream in its group: eof is the cue at whose end it stands.
type member struct {
	s   *stream
	g   *group
	eof uint64
}

// actKind is what an action is. The shell arms the clock and answers
// under its lock, runs the work (actDial to actCloseCtl) on the goroutine
// that fed the input, and sends the Coordinator's messages (actReport on)
// in decision order.
type actKind int

const (
	actArm      actKind = iota // arm the report clock for at
	actAnswer                  // answer request tk
	actDial                    // attempt n at the client's control port (op), then the hello
	actCommand                 // apply VCR op to every member; a cue is numbered cue
	actTeardown                // tear the members down; recordings commit
	actDiscard                 // close the streams of a group that was not admitted
	actJob                     // run a replication job
	actAbort                   // abort one
	actAttach                  // start serving the group's control connection
	actEOF                     // tell the client the group is at the end of content
	actCloseCtl                // close the group's control connection
	actReport                  // report disk to the Coordinator
	actNote                    // send the Coordinator typ with body
	actDrained                 // Close's wait is over: every group is gone
)

// An action is one decision of the core; a queued VCR request is kept as
// one too (tk, op, pos).
type action struct {
	kind  actKind
	group core.StreamID
	tk    uint64
	ss    []*stream // the members; an answer's or EOF's first
	op    string
	pos   time.Duration
	cue   uint64
	n     int
	err   error
	quit  bool   // an answer to a quit: the teardown follows the reply
	cause string // a teardown's
	disk  int
	seq   uint64
	typ   string
	body  any // a note's; the shell puts a VCR command's ack in its answer
	at    time.Time
	job   *replJob
}

func newEngine(disks int) *engine {
	return &engine{streams: map[core.StreamID]member{}, groups: map[core.StreamID]*group{}, playing: make([]int, disks), repl: map[uint64]*replJob{}}
}

// take hands over what the inputs since the last take decided, in order.
// The list is the caller's until the next input.
func (e *engine) take() []action {
	out := e.out
	e.out = e.out[:0]
	return out
}

func (e *engine) emit(a action) { e.out = append(e.out, a) }

func (e *engine) answer(tk uint64, err error) { e.emit(action{kind: actAnswer, tk: tk, err: err}) }

// start admits a stream group the shell built, all of its members or
// none: one of its stream IDs taken refuses it. StartStream tk is
// answered once the members have begun and the client's control
// connection is attached.
func (e *engine) start(now time.Time, tk uint64, ss []*stream) {
	var err error
	switch {
	case e.closed:
		err = core.ErrSessionClosed
	case len(ss) == 0:
		err = fmt.Errorf("%w: a start with no stream", core.ErrBadRequest)
	}
	for i, s := range ss {
		id := s.spec.Stream
		taken := e.streams[id].s != nil || slices.ContainsFunc(ss[:i], func(o *stream) bool { return o.spec.Stream == id })
		if err == nil && taken {
			err = fmt.Errorf("%w: stream %d", core.ErrDuplicateName, id)
		}
	}
	if err != nil {
		e.answer(tk, err)
		e.emit(action{kind: actDiscard, ss: ss})
		return
	}
	g := &group{id: ss[0].spec.Stream, members: ss}
	e.groups[g.id] = g
	for _, s := range ss {
		e.streams[s.spec.Stream] = member{s: s, g: g}
		if !s.spec.Record {
			e.playing[s.spec.Disk]++
			e.arm(now)
		}
	}
	e.run(g, action{tk: tk, op: beginOp})
}

// clientDialAttempts bounds the control-connection retries: a client that
// is momentarily busy (or whose accept loop lost the race with our dial)
// gets a few chances before the group is abandoned.
const clientDialAttempts = 4

// dialed is the outcome of attempt n at group gid's control port, for
// StartStream tk. With a nil err the shell holds the connection under
// gid, its hello sent: the core attaches it, or has it closed.
func (e *engine) dialed(gid core.StreamID, tk uint64, n int, err error) {
	g := e.groups[gid]
	live := g != nil && g.cause == ""
	switch {
	case err == nil && live:
		g.ctl = true
		e.emit(action{kind: actAttach, group: gid})
		e.answer(tk, nil)
		e.checkEOF(g) // an end of content reached before the connection existed
	case err == nil:
		e.emit(action{kind: actCloseCtl, group: gid})
		e.answer(tk, fmt.Errorf("group %d: %w", gid, core.ErrStreamTerminated))
	case live && n+1 < clientDialAttempts:
		e.emit(action{kind: actDial, group: gid, tk: tk, ss: g.members, op: g.members[0].spec.ClientTCP, n: n + 1})
	default:
		e.answer(tk, fmt.Errorf("msu: connecting client control: %w", err))
		e.quit(gid, "client unreachable")
	}
}

// vcr is VCR request tk on group gid's control connection.
func (e *engine) vcr(tk uint64, gid core.StreamID, op string, pos time.Duration) {
	r := action{tk: tk, op: op, pos: pos}
	switch g := e.groups[gid]; {
	case op == beginOp: // the members' first start, not a client's
		e.answer(tk, fmt.Errorf("%w: vcr op %q", core.ErrBadRequest, op))
	case g == nil || g.cause != "":
		e.answer(tk, core.ErrStreamTerminated)
	case g.busy:
		g.queue = append(g.queue, r)
	default:
		e.run(g, r)
	}
}

// run hands the members request r. A quit is answered at once, and
// holds the members until its acknowledgement is on the wire (quitAcked);
// any other op, their first start included, is a command to every member,
// and commanded its outcome.
func (e *engine) run(g *group, r action) {
	g.busy = true
	if r.op == wire.VCRQuit {
		g.acking = true
		e.emit(action{kind: actAnswer, tk: r.tk, ss: g.members[:1], quit: true})
		return
	}
	g.next = 0
	if r.op != wire.VCRPause {
		g.cues++
		g.next = g.cues
	}
	e.emit(action{kind: actCommand, group: g.id, tk: r.tk, ss: g.members, op: r.op, pos: r.pos, cue: g.next})
}

// commanded is the outcome of request tk's command to group gid. The
// members' first start (no connection yet) is followed by the dial.
func (e *engine) commanded(gid core.StreamID, tk uint64, err error) {
	g := e.groups[gid] // its teardown waited for this outcome
	g.busy = false
	if err == nil && g.next != 0 {
		g.cue = g.next
	}
	switch {
	case g.ctl:
		e.emit(action{kind: actAnswer, tk: tk, ss: g.members[:1], err: err})
		e.checkEOF(g) // a member may have reached the new cue's end already
		e.resume(g)
	case err == nil && g.cause == "":
		e.emit(action{kind: actDial, group: gid, tk: tk, ss: g.members, op: g.members[0].spec.ClientTCP})
	default:
		e.answer(tk, fmt.Errorf("msu: starting group %d: %w", gid, cmp.Or(err, core.ErrStreamTerminated)))
		e.quit(gid, "client unreachable")
	}
}

// quitAcked: the acknowledgement of group gid's quit is on the wire, or the
// connection it went to is gone (cause says which).
func (e *engine) quitAcked(gid core.StreamID, cause string) {
	if g := e.groups[gid]; g != nil && g.acking {
		g.busy, g.acking = false, false
	}
	e.quit(gid, cause)
}

// resume runs what waited for a group's members: their teardown, if the
// group was quit meanwhile, or else the next request.
func (e *engine) resume(g *group) {
	switch {
	case g.cause != "":
		e.teardown(g)
	case len(g.queue) > 0:
		r := g.queue[0]
		g.queue = g.queue[1:]
		e.run(g, r)
	}
}

// stop is the Coordinator's StopStream: the start naming stream id ends.
func (e *engine) stop(id core.StreamID, cause string) {
	if m := e.streams[id]; m.g != nil {
		e.quit(m.g.id, cause)
	}
}

// quit ends group gid, for cause unless it was quit before (§2.2: "After
// a 'quit' command from the client, the MSU informs the coordinator that
// the stream has been terminated"): at once, or when the command in
// flight comes back.
func (e *engine) quit(gid core.StreamID, cause string) {
	if g := e.groups[gid]; g != nil {
		g.cause = cmp.Or(g.cause, cause)
		if !g.busy {
			e.teardown(g)
		}
	}
}

// teardown stops a group's members, their last command; the requests
// queued are refused.
func (e *engine) teardown(g *group) {
	for _, r := range g.queue {
		e.answer(r.tk, core.ErrStreamTerminated)
	}
	g.queue, g.busy = nil, true
	e.emit(action{kind: actTeardown, group: g.id, ss: g.members, cause: g.cause})
}

// tornDown: group gid's members are down, and commits holds what their
// recordings published. The group is forgotten before the Coordinator
// hears its streams ended, so what that allows — deleting their content —
// finds nothing of them here; a disk it leaves idle reports first,
// counting every packet the streams sent. Only a group whose start was
// answered OK is reported ended: the Coordinator rolled any other back.
func (e *engine) tornDown(gid core.StreamID, commits []wire.RecordingDone) {
	g := e.groups[gid]
	delete(e.groups, gid)
	for _, c := range commits {
		e.emit(action{kind: actNote, typ: wire.TypeRecordingDone, body: c})
	}
	for _, s := range g.members {
		delete(e.streams, s.spec.Stream)
		if d := s.spec.Disk; !s.spec.Record {
			if e.playing[d]--; e.playing[d] == 0 {
				e.report(d)
			}
		}
	}
	if g.ctl {
		for _, s := range g.members {
			e.emit(action{kind: actNote, typ: wire.TypeStreamEnded, body: wire.StreamEnded{Stream: s.spec.Stream, Cause: g.cause}})
		}
		e.emit(action{kind: actCloseCtl, group: gid})
	}
	if e.closed && len(e.groups) == 0 {
		e.emit(action{kind: actDrained})
	}
}

// ended: stream id reached the end of cue. The client is told once every
// member stands at the end of the cue the group plays (§2.1's play flow
// ends here, but resources stay allocated until quit so the client can
// seek back).
func (e *engine) ended(id core.StreamID, cue uint64) {
	if m := e.streams[id]; m.g != nil {
		m.eof = cue
		e.streams[id] = m
		e.checkEOF(m.g)
	}
}

func (e *engine) checkEOF(g *group) {
	if !g.ctl || g.cause != "" || g.eofCue == g.cue {
		return
	}
	for _, s := range g.members {
		if e.streams[s.spec.Stream].eof != g.cue {
			return
		}
	}
	g.eofCue = g.cue
	e.emit(action{kind: actEOF, group: g.id, ss: g.members[:1]})
}

// reportEvery is the report clock's period while a disk plays.
const reportEvery = 250 * time.Millisecond

// arm starts the report clock unless a tick is due.
func (e *engine) arm(now time.Time) {
	if !e.clock && !e.closed {
		e.clock = true
		e.emit(action{kind: actArm, at: now.Add(reportEvery)})
	}
}

// report numbers a report of disk: the Coordinator drops one numbered
// below the last it took.
func (e *engine) report(disk int) {
	e.seq++
	e.emit(action{kind: actReport, disk: disk, seq: e.seq})
}

// tick is the report clock's: each disk playing reports, and the clock
// runs on while one does.
func (e *engine) tick(now time.Time) {
	e.clock = false
	for d, n := range e.playing {
		if n > 0 && !e.closed {
			e.report(d)
			e.arm(now)
		}
	}
}

// replicate admits an inbound copy job.
func (e *engine) replicate(j *replJob) error {
	switch {
	case e.closed:
		return core.ErrSessionClosed
	case e.repl[j.req.ID] != nil:
		return fmt.Errorf("%w: replication %d already running", core.ErrBadRequest, j.req.ID)
	}
	e.repl[j.req.ID] = j
	e.emit(action{kind: actJob, job: j})
	return nil
}

// abortReplication is the Coordinator's ReplicateAbort; an unknown id is a
// job that just ended.
func (e *engine) abortReplication(id uint64) {
	if j := e.repl[id]; j != nil {
		e.emit(action{kind: actAbort, job: j})
	}
}

// replicated: job id has ended, committed or failed.
func (e *engine) replicated(id uint64, failed *wire.ReplicateFailed) {
	delete(e.repl, id)
	if failed != nil {
		e.emit(action{kind: actNote, typ: wire.TypeReplicateFailed, body: *failed})
	}
}

// inUse reports whether a stream plays or records content.
func (e *engine) inUse(content string) bool {
	for _, m := range e.streams {
		if m.s.spec.Content == content {
			return true
		}
	}
	return false
}

// close shuts the control plane down: inbound copies abort and every
// group is quit. Once the last is gone, Close's wait is over.
func (e *engine) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, id := range sortedKeys(e.repl) {
		e.emit(action{kind: actAbort, job: e.repl[id]})
	}
	for _, id := range sortedKeys(e.groups) {
		e.quit(id, "msu shutdown")
	}
	if len(e.groups) == 0 {
		e.emit(action{kind: actDrained})
	}
}

// sortedKeys lists a table's keys in order, so what is decided for each
// does not hang on map order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
