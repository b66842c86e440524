package msu

// The core driven by hand: inputs called directly, decisions read off
// take, on a clock that moves only when a test moves it. No socket, no
// goroutine, no disk process: the streams are bare specs, and the work the
// core hands out is held by the test until it feeds the outcome back.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"calliope/internal/core"
	"calliope/internal/wire"
)

// inspect runs f on the MSU's core between two inputs: the tests read the
// control state this way, and no other.
func (m *MSU) inspect(f func(e *engine)) { m.step(func(time.Time) { f(m.eng) }) }

// live reports how many streams and groups the MSU holds.
func (m *MSU) live() (streams, groups int) {
	m.inspect(func(e *engine) { streams, groups = len(e.streams), len(e.groups) })
	return streams, groups
}

// atEnd reports whether the core has s standing at the end of the cue
// its group plays.
func (m *MSU) atEnd(s *stream) (end bool) {
	m.inspect(func(e *engine) {
		mem := e.streams[s.spec.Stream]
		end = mem.g != nil && mem.eof != 0 && mem.eof == mem.g.cue
	})
	return end
}

// streamByID is stream id, or nil.
func (m *MSU) streamByID(id core.StreamID) (s *stream) {
	m.inspect(func(e *engine) { s = e.streams[id].s })
	return s
}

var errRefused = errors.New("refused")

// coreRig is a core on a fake clock with the shell's bookkeeping done by
// hand: the tickets handed out, the clock's deadline, the connections held.
type coreRig struct {
	t   *testing.T
	e   *engine
	now time.Time
	tk  uint64
	at  time.Time // the report clock's deadline; zero while unarmed
}

func newCoreRig(t *testing.T) *coreRig {
	return &coreRig{t: t, e: newEngine(2), now: time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)}
}

// in feeds one input and takes what it decided, noting an armed clock.
func (r *coreRig) in(input func()) []action {
	input()
	out := slices.Clone(r.e.take())
	for _, a := range out {
		if a.kind == actArm {
			if !r.at.IsZero() {
				r.t.Fatalf("clock armed for %v while due at %v", a.at, r.at)
			}
			r.at = a.at
		}
	}
	return out
}

func (r *coreRig) ticket() uint64 {
	r.tk++
	return r.tk
}

// advance moves the clock by d, feeding the ticks that fall due.
func (r *coreRig) advance(d time.Duration) []action {
	var out []action
	for end := r.now.Add(d); ; {
		if r.at.IsZero() || r.at.After(end) {
			r.now = end
			return out
		}
		r.now, r.at = r.at, time.Time{}
		out = append(out, r.in(func() { r.e.tick(r.now) })...)
	}
}

// play starts a one-stream play group id on disk and runs it through its
// begin and dial: it is playing, its control connection attached.
func (r *coreRig) play(id core.StreamID, disk int) *stream {
	r.t.Helper()
	s := &stream{spec: core.StreamSpec{Stream: id, Group: uint64(id), Disk: disk, Content: "movie", ClientTCP: "client"}}
	tk := r.ticket()
	begin := only(r.t, r.in(func() { r.e.start(r.now, tk, []*stream{s}) }), actCommand)
	dial := only(r.t, r.in(func() { r.e.commanded(begin.group, tk, nil) }), actDial)
	if a := only(r.t, r.in(func() { r.e.dialed(dial.group, tk, 0, nil) }), actAnswer); a.err != nil {
		r.t.Fatalf("start of %d: %v", id, a.err)
	}
	return s
}

// only returns the one action of kind in out.
func only(t *testing.T, out []action, kind actKind) action {
	t.Helper()
	var got []action
	for _, a := range out {
		if a.kind == kind {
			got = append(got, a)
		}
	}
	if len(got) != 1 {
		t.Fatalf("%d actions of kind %d in %v, want 1", len(got), kind, kinds(out))
	}
	return got[0]
}

func kinds(out []action) []actKind {
	var ks []actKind
	for _, a := range out {
		ks = append(ks, a.kind)
	}
	return ks
}

// TestCoreIdleMSUSendsNothing: the last stream quits, its disk reports
// once after its teardown, and then the MSU is idle: ten report periods
// pass with no report and no tick armed.
func TestCoreIdleMSUSendsNothing(t *testing.T) {
	r := newCoreRig(t)
	r.play(1, 0)
	if n := len(r.advance(3 * reportEvery)); n < 3 {
		t.Fatalf("%d decisions in three report periods of play, want a report each", n)
	}
	teardown := only(t, r.in(func() { r.e.stop(1, "coordinator stop") }), actTeardown)
	out := r.in(func() { r.e.tornDown(teardown.group, nil) })
	if ks := kinds(out); !slices.Equal(ks, []actKind{actReport, actNote, actCloseCtl}) {
		t.Fatalf("teardown decided %v, want the report, stream-ended, the close", ks)
	}
	out = r.advance(10 * reportEvery)
	if len(out) != 0 || !r.at.IsZero() {
		t.Fatalf("idle for ten report periods: decided %v, clock due %v", kinds(out), r.at)
	}
}

// TestCoreQuitWaitsForCommand: a Coordinator stop while a seek is with
// the members tears them down only when the seek comes back, and the
// request queued behind it is refused.
func TestCoreQuitWaitsForCommand(t *testing.T) {
	r := newCoreRig(t)
	r.play(1, 0)
	seek, pause := r.ticket(), r.ticket()
	cmd := only(t, r.in(func() { r.e.vcr(seek, 1, "seek", time.Second) }), actCommand)
	if out := r.in(func() { r.e.vcr(pause, 1, "pause", 0) }); len(out) != 0 {
		t.Fatalf("a request behind a command decided %v", kinds(out))
	}
	if out := r.in(func() { r.e.stop(1, "coordinator stop") }); len(out) != 0 {
		t.Fatalf("a stop during a command decided %v", kinds(out))
	}
	out := r.in(func() { r.e.commanded(cmd.group, cmd.tk, nil) })
	if ks := kinds(out); !slices.Equal(ks, []actKind{actAnswer, actAnswer, actTeardown}) {
		t.Fatalf("the seek's outcome decided %v, want its answer, the pause refused, the teardown", ks)
	}
	if out[0].tk != seek || out[0].err != nil || out[1].tk != pause || !errors.Is(out[1].err, core.ErrStreamTerminated) {
		t.Fatalf("answers %+v, %+v", out[0], out[1])
	}
}

// TestCoreDialAfterQuit: a group quit while its control dial is out gets
// no connection attached when the dial succeeds; the connection is closed
// and the start refused.
func TestCoreDialAfterQuit(t *testing.T) {
	r := newCoreRig(t)
	s := &stream{spec: core.StreamSpec{Stream: 1, Group: 1, Content: "movie", ClientTCP: "client"}}
	tk := r.ticket()
	only(t, r.in(func() { r.e.start(r.now, tk, []*stream{s}) }), actCommand)
	only(t, r.in(func() { r.e.commanded(1, tk, nil) }), actDial)
	only(t, r.in(func() { r.e.stop(1, "coordinator stop") }), actTeardown)
	out := r.in(func() { r.e.dialed(1, tk, 0, nil) })
	if ks := kinds(out); !slices.Equal(ks, []actKind{actCloseCtl, actAnswer}) || out[1].err == nil {
		t.Fatalf("a dial after the quit decided %v (answer %v), want the close and a refusal", ks, out[len(out)-1].err)
	}
}

// TestCoreRefusedStartSendsNoStreamEnded: a two-member group whose control
// dial fails on every attempt is refused and torn down. Its disk reports
// once it is idle, but the Coordinator, which rolled the start back at
// the refusal, hears no stream-ended: it would name streams that no
// longer stand.
func TestCoreRefusedStartSendsNoStreamEnded(t *testing.T) {
	r := newCoreRig(t)
	ss := []*stream{
		{spec: core.StreamSpec{Stream: 1, Group: 1, Content: "clip", ClientTCP: "client"}},
		{spec: core.StreamSpec{Stream: 2, Group: 1, Content: "talk", ClientTCP: "client"}},
	}
	tk := r.ticket()
	begin := only(t, r.in(func() { r.e.start(r.now, tk, ss) }), actCommand)
	dial := only(t, r.in(func() { r.e.commanded(begin.group, tk, nil) }), actDial)
	for dial.n+1 < clientDialAttempts {
		dial = only(t, r.in(func() { r.e.dialed(1, tk, dial.n, errRefused) }), actDial)
	}
	out := r.in(func() { r.e.dialed(1, tk, dial.n, errRefused) })
	if a := only(t, out, actAnswer); a.tk != tk || a.err == nil {
		t.Fatalf("the last failed dial answered %+v, want the start refused", a)
	}
	teardown := only(t, out, actTeardown)
	out = r.in(func() { r.e.tornDown(teardown.group, nil) })
	if ks := kinds(out); !slices.Equal(ks, []actKind{actReport}) {
		t.Fatalf("the refused group's teardown decided %v, want the idle disk's report alone", ks)
	}
	if streams, groups := len(r.e.streams), len(r.e.groups); streams+groups != 0 {
		t.Fatalf("%d streams and %d groups linger", streams, groups)
	}
}

// TestCoreStartAfterStop: a StopStream quits the start that named its
// stream, and a start of the same group that comes before the teardown
// returns (a re-dispatch placed here again) names new streams: it is
// admitted and answered OK, and the old start's stream-ended names only
// the old start's streams.
func TestCoreStartAfterStop(t *testing.T) {
	r := newCoreRig(t)
	r.play(1, 0)
	teardown := only(t, r.in(func() { r.e.stop(1, "coordinator stop") }), actTeardown)
	again := &stream{spec: core.StreamSpec{Stream: 2, Group: 1, Disk: 0, Content: "movie", ClientTCP: "client"}}
	tk := r.ticket()
	begin := only(t, r.in(func() { r.e.start(r.now, tk, []*stream{again}) }), actCommand)
	dial := only(t, r.in(func() { r.e.commanded(begin.group, tk, nil) }), actDial)
	if a := only(t, r.in(func() { r.e.dialed(dial.group, tk, 0, nil) }), actAnswer); a.err != nil {
		t.Fatalf("the start after the stop answered %v, want OK", a.err)
	}
	var ended []core.StreamID
	for _, a := range r.in(func() { r.e.tornDown(teardown.group, nil) }) {
		if n, ok := a.body.(wire.StreamEnded); ok {
			ended = append(ended, n.Stream)
		}
	}
	if !slices.Equal(ended, []core.StreamID{1}) {
		t.Fatalf("the old start's teardown reported streams %v ended, want [1]", ended)
	}
	if r.e.streams[2].s != again || len(r.e.groups) != 1 {
		t.Fatalf("after the old start's teardown: stream 2 is %+v, %d groups, want the new start alone", r.e.streams[2], len(r.e.groups))
	}
}

// TestCoreIdleReportAfterTeardowns: two groups on one disk quit at once.
// The disk reports when the second teardown is done, before its
// stream-ended, and not before.
func TestCoreIdleReportAfterTeardowns(t *testing.T) {
	r := newCoreRig(t)
	r.play(1, 0)
	r.play(2, 0)
	a := only(t, r.in(func() { r.e.stop(1, "coordinator stop") }), actTeardown)
	b := only(t, r.in(func() { r.e.stop(2, "coordinator stop") }), actTeardown)
	if ks := kinds(r.in(func() { r.e.tornDown(b.group, nil) })); slices.Contains(ks, actReport) {
		t.Fatalf("a disk still playing reported: %v", ks)
	}
	if ks := kinds(r.in(func() { r.e.tornDown(a.group, nil) })); !slices.Equal(ks, []actKind{actReport, actNote, actCloseCtl}) {
		t.Fatalf("the last teardown decided %v, want the report before stream-ended", ks)
	}
}

// TestCoreEOFAcrossASeek: an end of content the seek overtook is told at
// once, and the end of the cue the seek started is told again, however
// its report and the seek's outcome interleave.
func TestCoreEOFAcrossASeek(t *testing.T) {
	r := newCoreRig(t)
	r.play(1, 0)
	if ks := kinds(r.in(func() { r.e.ended(1, 1) })); !slices.Equal(ks, []actKind{actEOF}) {
		t.Fatalf("the first cue's end decided %v", ks)
	}
	cmd := only(t, r.in(func() { r.e.vcr(r.ticket(), 1, "seek", 0) }), actCommand)
	// The new cue ends before the seek's outcome is in: nothing yet.
	if out := r.in(func() { r.e.ended(1, cmd.cue) }); len(out) != 0 {
		t.Fatalf("an end reported before its seek came back decided %v", kinds(out))
	}
	if ks := kinds(r.in(func() { r.e.commanded(cmd.group, cmd.tk, nil) })); !slices.Equal(ks, []actKind{actAnswer, actEOF}) {
		t.Fatalf("the seek's outcome decided %v, want its answer and the EOF", ks)
	}
	// A stale end of the old cue is not told again.
	if out := r.in(func() { r.e.ended(1, 1) }); len(out) != 0 {
		t.Fatalf("a stale end decided %v", kinds(out))
	}
}

// walk is the model a walk keeps beside the core: what the shell would
// hold, and what the invariants are checked against.
type walk struct {
	*coreRig
	rng *rand.Rand
	log strings.Builder
	// work holds the blocking actions out, and acks the groups whose quit
	// acknowledgement is on its way.
	work []action
	acks []core.StreamID
	// The model: each admitted stream by id, and the group it came in; each
	// group's members, its commands out, whether its teardown is out,
	// whether its start was answered OK; the connections held; the tickets
	// not yet answered, and by ticket the group each StartStream names. A
	// group is keyed as the core keys it, by its start's first stream.
	streams   map[core.StreamID]*stream
	keys      map[*stream]core.StreamID
	members   map[core.StreamID][]*stream
	inflight  map[core.StreamID]int
	down      map[core.StreamID]bool
	ok        map[core.StreamID]bool
	ctls      map[core.StreamID]bool
	asked     map[uint64]bool
	starts    map[uint64]core.StreamID
	teardowns map[*stream]int
	applied   map[*stream]uint64 // the cue each stream's disk process plays
	jobs      map[uint64]bool
	nextID    core.StreamID
	nextGroup uint64
	drained   int
}

// walkInputs drives the core with seed's random sequence of inputs —
// StartStream (a whole group; now and then one naming a stream ID already
// taken, which the core must refuse, or the group ID of a group still
// being torn down, which it must admit), StopStream, VCR requests and
// quits, the outcomes of the begins, dials, commands and teardowns it
// hands out (taken in any order, some failing), end-of-content reports, stale ones too, a lost control
// connection, clock ticks, replication orders, aborts and ends, and Close
// — and checks the invariants after every input: a disk with no play
// stream arms no clock; a group's members have at most one command out
// and none after their teardown; every stream admitted is torn down once,
// so its pool reservation has one owner; no connection outlives its group
// and none is attached to a group quit; a disk left idle reports after
// the teardowns that left it and before their stream-ended; every stream
// of a group whose start was answered OK is reported ended, and none of
// one answered with an error; every request is answered once. It returns
// a transcript of every decision.
func walkInputs(t *testing.T, seed int64, steps int) (string, error) {
	w := &walk{
		coreRig: newCoreRig(t), rng: rand.New(rand.NewSource(seed)),
		streams: map[core.StreamID]*stream{}, keys: map[*stream]core.StreamID{}, members: map[core.StreamID][]*stream{},
		inflight: map[core.StreamID]int{}, down: map[core.StreamID]bool{}, ok: map[core.StreamID]bool{}, ctls: map[core.StreamID]bool{},
		asked: map[uint64]bool{}, starts: map[uint64]core.StreamID{}, teardowns: map[*stream]int{}, applied: map[*stream]uint64{},
		jobs: map[uint64]bool{},
	}
	for step := 0; step < steps; step++ {
		if err := w.step(step == steps*3/4); err != nil {
			return w.log.String(), fmt.Errorf("seed %d, step %d: %w", seed, step, err)
		}
	}
	// Close, then let every piece of work out come back.
	if err := w.input("close", func() { w.e.close() }); err != nil {
		return w.log.String(), fmt.Errorf("seed %d, close: %w", seed, err)
	}
	for len(w.work) > 0 || len(w.acks) > 0 {
		if err := w.finishOne(); err != nil {
			return w.log.String(), fmt.Errorf("seed %d, after close: %w", seed, err)
		}
	}
	switch {
	case len(w.e.groups) != 0 || len(w.e.streams) != 0:
		return w.log.String(), fmt.Errorf("seed %d: %d groups and %d streams outlive Close", seed, len(w.e.groups), len(w.e.streams))
	case len(w.asked) != 0:
		return w.log.String(), fmt.Errorf("seed %d: %d requests never answered", seed, len(w.asked))
	case w.drained != 1:
		return w.log.String(), fmt.Errorf("seed %d: Close's wait ended %d times", seed, w.drained)
	}
	for s, n := range w.teardowns {
		if n != 1 {
			return w.log.String(), fmt.Errorf("seed %d: stream %d torn down %d times", seed, s.spec.Stream, n)
		}
	}
	return w.log.String(), nil
}

// step feeds one random input; closing feeds Close instead.
func (w *walk) step(closing bool) error {
	if closing {
		return w.input("close", func() { w.e.close() })
	}
	switch op := w.rng.Intn(40); {
	case op < 6:
		return w.start()
	case op < 7:
		id := core.StreamID(1 + w.rng.Intn(int(w.nextID)+1))
		return w.input(fmt.Sprintf("stop %d", id), func() { w.e.stop(id, "coordinator stop") })
	case op < 15:
		return w.vcr()
	case op < 27:
		return w.finishOne()
	case op < 32:
		return w.eof()
	case op < 35:
		return w.input("advance", func() {}, w.advance(time.Duration(w.rng.Intn(300))*time.Millisecond)...)
	case op < 36:
		gids := sortedKeys(w.ctls)
		if len(gids) == 0 {
			return nil
		}
		gid := gids[w.rng.Intn(len(gids))]
		return w.input(fmt.Sprintf("lost %d", gid), func() { w.e.quitAcked(gid, "client control connection lost") })
	default:
		return w.replication()
	}
}

// start sends a StartStream: a new group of one to three members, now and
// then one naming a stream ID already taken, which the core refuses whole,
// or the group ID of a group still being torn down, a start of its own,
// which the core admits.
func (w *walk) start() error {
	var tearing []uint64
	for _, key := range sortedKeys(w.e.groups) {
		if w.down[key] {
			tearing = append(tearing, w.e.groups[key].members[0].spec.Group)
		}
	}
	var gid uint64
	if len(tearing) > 0 && w.rng.Intn(10) == 0 {
		gid = tearing[w.rng.Intn(len(tearing))]
	} else {
		w.nextGroup++
		gid = w.nextGroup
	}
	ss := make([]*stream, 1+w.rng.Intn(3))
	for i := range ss {
		w.nextID++
		spec := core.StreamSpec{Stream: w.nextID, Group: gid, ClientTCP: "client"}
		if w.rng.Intn(20) == 0 && w.nextID > 1 {
			w.nextID--
			spec.Stream = core.StreamID(1 + w.rng.Intn(int(w.nextID)))
		}
		spec.Disk = w.rng.Intn(2)
		spec.Record = w.rng.Intn(5) == 0
		spec.Content = fmt.Sprintf("title%d", w.rng.Intn(3))
		ss[i] = &stream{spec: spec}
	}
	taken := slices.ContainsFunc(ss, func(s *stream) bool {
		return w.e.streams[s.spec.Stream].s != nil || slices.ContainsFunc(ss, func(o *stream) bool { return o != s && o.spec.Stream == s.spec.Stream })
	})
	tk := w.ticket()
	w.asked[tk] = true
	w.starts[tk] = ss[0].spec.Stream
	if err := w.input(fmt.Sprintf("start %d streams in group %d", len(ss), gid), func() { w.e.start(w.now, tk, ss) }); err != nil {
		return err
	}
	if g := w.e.groups[ss[0].spec.Stream]; !taken && !w.e.closed && (g == nil || g.members[0] != ss[0]) {
		return fmt.Errorf("a start of group %d naming no stream taken was refused", gid)
	}
	return nil
}

// vcr sends a VCR request on a group's connection, or one the group has
// gone from.
func (w *walk) vcr() error {
	gids := sortedKeys(w.ctls)
	gid := w.nextID + 1
	if len(gids) > 0 && w.rng.Intn(8) != 0 {
		gid = gids[w.rng.Intn(len(gids))]
	}
	op := []string{"seek", "pause", "play", "fast-forward", "quit", "bogus"}[w.rng.Intn(6)]
	tk := w.ticket()
	w.asked[tk] = true
	return w.input(fmt.Sprintf("vcr %s on group %d", op, gid), func() { w.e.vcr(tk, gid, op, time.Second) })
}

// eof reports the end of a playing stream's cue: the cue it plays, or now
// and then the one a command out is starting.
func (w *walk) eof() error {
	var playing []*stream
	for _, id := range sortedKeys(w.streams) {
		if s := w.streams[id]; w.applied[s] != 0 {
			playing = append(playing, s)
		}
	}
	if len(playing) == 0 {
		return nil
	}
	s := playing[w.rng.Intn(len(playing))]
	cue := w.applied[s]
	for _, a := range w.work {
		if a.kind == actCommand && a.cue != 0 && slices.Contains(a.ss, s) && w.rng.Intn(2) == 0 {
			cue = a.cue
		}
	}
	return w.input(fmt.Sprintf("eof %d at cue %d", s.spec.Stream, cue), func() { w.e.ended(s.spec.Stream, cue) })
}

// replication orders a copy, aborts one, or ends one.
func (w *walk) replication() error {
	id := uint64(1 + w.rng.Intn(4))
	switch w.rng.Intn(3) {
	case 0:
		j := &replJob{req: wire.Replicate{ID: id}}
		var err error
		in := w.input(fmt.Sprintf("replicate %d", id), func() { err = w.e.replicate(j) })
		if in == nil && err == nil {
			if w.jobs[id] {
				return fmt.Errorf("replication %d admitted twice", id)
			}
			w.jobs[id] = true
		}
		return in
	case 1:
		return w.input(fmt.Sprintf("abort %d", id), func() { w.e.abortReplication(id) })
	default:
		delete(w.jobs, id)
		return w.input(fmt.Sprintf("replicated %d", id), func() { w.e.replicated(id, nil) })
	}
}

// finishOne feeds back the outcome of one piece of work out, or one quit
// acknowledgement, picked at random.
func (w *walk) finishOne() error {
	n := len(w.work) + len(w.acks)
	if n == 0 {
		return nil
	}
	i := w.rng.Intn(n)
	if i >= len(w.work) {
		i -= len(w.work)
		gid := w.acks[i]
		w.acks = slices.Delete(w.acks, i, i+1)
		return w.input(fmt.Sprintf("quit acked %d", gid), func() { w.e.quitAcked(gid, "client quit") })
	}
	a := w.work[i]
	w.work = slices.Delete(w.work, i, i+1)
	if a.kind != actDial {
		w.inflight[a.group]--
	}
	fail := w.rng.Intn(8) == 0
	var err error
	if fail {
		err = errRefused
	}
	switch a.kind {
	case actCommand:
		if !fail {
			w.apply(a)
		}
		return w.input(fmt.Sprintf("commanded %d: %v", a.group, err), func() { w.e.commanded(a.group, a.tk, err) })
	case actDial:
		if !fail {
			if w.ctls[a.group] {
				return fmt.Errorf("group %d dialled while its connection is held", a.group)
			}
			w.ctls[a.group] = true
		}
		return w.input(fmt.Sprintf("dialed %d (attempt %d): %v", a.group, a.n, err), func() { w.e.dialed(a.group, a.tk, a.n, err) })
	default: // actTeardown
		var commits []wire.RecordingDone
		for _, s := range a.ss {
			if s.spec.Record {
				commits = append(commits, wire.RecordingDone{Stream: s.spec.Stream, Content: s.spec.Content})
			}
		}
		return w.input(fmt.Sprintf("torn down %d", a.group), func() { w.e.tornDown(a.group, commits) })
	}
}

// apply has the members' disk processes take a command's cue.
func (w *walk) apply(a action) {
	if a.cue == 0 {
		return
	}
	for _, s := range a.ss {
		if !s.spec.Record {
			w.applied[s] = a.cue
		}
	}
}

// input feeds one input, with any decisions it already led to, and checks
// what it decided against the model.
func (w *walk) input(what string, in func(), already ...action) error {
	out := append(already, w.in(in)...)
	// A group the core keeps is admitted: start decided no discard.
	for _, gid := range sortedKeys(w.e.groups) {
		if g := w.e.groups[gid]; w.members[gid] == nil && !w.down[gid] {
			w.members[gid] = slices.Clone(g.members)
			for _, s := range g.members {
				w.streams[s.spec.Stream] = s
				w.keys[s] = gid
			}
		}
	}
	fmt.Fprintf(&w.log, "%s:", what)
	// The disks this input's stream-ended notes leave with no play stream
	// must report before the first of those notes.
	reported := map[int]bool{}
	for _, a := range out {
		fmt.Fprintf(&w.log, " %d/%d/%d", a.kind, a.group, a.tk)
		if err := w.check(a, reported); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
	}
	w.log.WriteString("\n")
	// A group gone from the core leaves the model: one whose start was
	// answered OK at its members' stream-ended, any other here, with no
	// stream-ended, and a disk it leaves idle reported all the same.
	for _, gid := range sortedKeys(w.members) {
		if w.e.groups[gid] != nil {
			continue
		}
		if w.ok[gid] {
			return fmt.Errorf("%s: group %d is gone without its streams' stream-ended", what, gid)
		}
		for _, s := range w.members[gid] {
			delete(w.streams, s.spec.Stream)
		}
		for _, s := range w.members[gid] {
			if !s.spec.Record && !reported[s.spec.Disk] && len(w.playStreams(s.spec.Disk)) == 0 {
				return fmt.Errorf("%s: disk %d left idle by group %d without a report", what, s.spec.Disk, gid)
			}
		}
		w.forget(gid)
	}
	for _, gid := range sortedKeys(w.ctls) {
		if w.members[gid] == nil {
			return fmt.Errorf("%s: a connection outlives group %d", what, gid)
		}
	}
	return nil
}

// check applies one decision to the model and checks it.
func (w *walk) check(a action, reported map[int]bool) error {
	switch a.kind {
	case actArm:
		if len(w.playStreams(-1)) == 0 {
			return errors.New("clock armed with no play stream")
		}
	case actCommand, actTeardown:
		if w.inflight[a.group] != 0 {
			return fmt.Errorf("group %d: a second command while one is out", a.group)
		}
		if w.down[a.group] {
			return fmt.Errorf("group %d: a command after its teardown", a.group)
		}
		w.inflight[a.group]++
		w.work = append(w.work, a)
		if a.kind == actTeardown {
			w.down[a.group] = true
			for _, s := range a.ss {
				if w.teardowns[s]++; w.teardowns[s] != 1 {
					return fmt.Errorf("stream %d torn down twice", s.spec.Stream)
				}
			}
		}
	case actDial:
		w.work = append(w.work, a)
	case actDiscard:
		for _, s := range a.ss {
			if w.streams[s.spec.Stream] == s {
				return fmt.Errorf("stream %d discarded once admitted", s.spec.Stream)
			}
		}
	case actAnswer:
		if !w.asked[a.tk] {
			return fmt.Errorf("request %d answered twice, or never asked", a.tk)
		}
		delete(w.asked, a.tk)
		if gid, ok := w.starts[a.tk]; ok && a.err == nil {
			w.ok[gid] = true
		}
		if a.quit {
			w.acks = append(w.acks, a.ss[0].spec.Stream)
		}
	case actAttach:
		if !w.ctls[a.group] || w.down[a.group] || w.members[a.group] == nil {
			return fmt.Errorf("group %d: a connection attached after its quit", a.group)
		}
	case actCloseCtl:
		if !w.ctls[a.group] {
			return fmt.Errorf("group %d: a connection closed that is not held", a.group)
		}
		delete(w.ctls, a.group)
	case actReport:
		if len(w.playStreams(a.disk)) == 0 {
			return fmt.Errorf("disk %d reports with no play stream", a.disk)
		}
		reported[a.disk] = true
	case actNote:
		if ended, ok := a.body.(wire.StreamEnded); ok {
			return w.ended(ended.Stream, reported)
		}
	case actDrained:
		w.drained++
	}
	return nil
}

// ended removes a stream from the model at its stream-ended, checking the
// report its disk owes if it leaves the disk idle.
func (w *walk) ended(id core.StreamID, reported map[int]bool) error {
	s := w.streams[id]
	gid := w.keys[s]
	switch {
	case s == nil || !w.down[gid] || w.inflight[gid] != 0:
		return fmt.Errorf("stream-ended for %d before its teardown came back", id)
	case !w.ok[gid]:
		return fmt.Errorf("stream-ended for %d, whose start was not answered OK", id)
	}
	delete(w.streams, id)
	delete(w.keys, s)
	if len(w.members[gid]) == 1 {
		w.forget(gid)
	} else {
		w.members[gid] = slices.DeleteFunc(w.members[gid], func(m *stream) bool { return m == s })
	}
	if !s.spec.Record && !reported[s.spec.Disk] && len(w.playStreams(s.spec.Disk)) == 0 {
		// The others of its group still count: see whether any is left.
		return fmt.Errorf("disk %d left idle by stream %d without a report before its stream-ended", s.spec.Disk, id)
	}
	return nil
}

// forget drops a group gone from the core from the model: a later start
// may name its first stream again.
func (w *walk) forget(gid core.StreamID) {
	for _, s := range w.members[gid] {
		delete(w.keys, s)
	}
	delete(w.members, gid)
	delete(w.inflight, gid)
	delete(w.down, gid)
	delete(w.ok, gid)
}

// playStreams lists the model's play streams on disk, or on any (-1).
func (w *walk) playStreams(disk int) []*stream {
	var ss []*stream
	for _, id := range sortedKeys(w.streams) {
		if s := w.streams[id]; !s.spec.Record && (disk < 0 || s.spec.Disk == disk) {
			ss = append(ss, s)
		}
	}
	return ss
}

// TestCoreWalk drives the core with 200 seeded walks of 400 inputs each,
// the invariants checked after every input (walkInputs).
func TestCoreWalk(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if _, err := walkInputs(t, seed, 400); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoreWalkDeterministic: a walk repeats decision for decision from its
// seed.
func TestCoreWalkDeterministic(t *testing.T) {
	a, errA := walkInputs(t, 7, 2000)
	b, errB := walkInputs(t, 7, 2000)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a != b {
		t.Fatal("two walks from one seed decided differently")
	}
}
