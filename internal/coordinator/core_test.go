package coordinator

// The core driven by hand: a Coordinator that never listens, whose
// inputs are called directly and whose decisions are read off the
// outbox, on a clock that moves only when a test moves it. No socket,
// no goroutine.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"calliope/internal/core"
	"calliope/internal/schedule"
	"calliope/internal/units"
	"calliope/internal/wire"
)

type coreRig struct {
	t       *testing.T
	c       *Coordinator
	now     time.Time
	tickets uint64
}

func newCoreRig(t *testing.T, cfg Config) *coreRig {
	t.Helper()
	r := &coreRig{t: t, now: time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)}
	cfg.Types = paperTypes()
	cfg.Now = func() time.Time { return r.now }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.c = c
	return r
}

// in feeds one input and takes what it decided.
func (r *coreRig) in(input func()) effects {
	input()
	return r.c.take(r.now)
}

func (r *coreRig) ticket() uint64 {
	r.tickets++
	return r.tickets
}

func (r *coreRig) advance(d time.Duration) effects {
	r.now = r.now.Add(d)
	return r.in(func() { r.c.tick(r.now) })
}

// msu registers an MSU with one disk of 1000 blocks on conn.
func (r *coreRig) msu(conn connID, id core.MSUID, bw units.BitRate, free int64, titles ...wire.ContentDecl) effects {
	r.t.Helper()
	tk := r.ticket()
	fx := r.in(func() {
		r.c.msuHello(r.now, tk, conn, wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: id, TransferAddr: "transfer:" + string(id),
			Disks: []wire.DiskInfo{{BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: free, Bandwidth: bw, Contents: titles}}})
	})
	if a, ok := answerFor(fx, tk); !ok || a.err != nil {
		r.t.Fatalf("MSU %s: answered %v, %+v", id, ok, a)
	}
	return fx
}

// client opens a session on conn with an mpeg1 port "tv" and an
// rtp-video port "v".
func (r *coreRig) client(conn connID) {
	r.t.Helper()
	if _, err := r.c.hello(conn, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}); err != nil {
		r.t.Fatal(err)
	}
	for _, p := range []wire.RegisterPort{{Name: "tv", Type: "mpeg1", Addr: "a:1"}, {Name: "v", Type: "rtp-video", Addr: "a:2"}} {
		if _, err := r.c.registerPort(conn, p); err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *coreRig) play(conn connID, content, port string, wait bool) (uint64, effects) {
	tk := r.ticket()
	return tk, r.in(func() {
		r.c.play(r.now, tk, conn, wire.Play{Content: content, Port: port, ControlAddr: "a:9", Wait: wait})
	})
}

// started answers call cl and takes what that decided.
func (r *coreRig) started(cl *call, err error) effects {
	return r.in(func() { cl.then(r.now, err) })
}

// admit plays content to a successful start and returns its reply.
func (r *coreRig) admit(conn connID, content, port string) *wire.PlayOK {
	r.t.Helper()
	tk, fx := r.play(conn, content, port, false)
	cl := startFor(fx, tk)
	if cl == nil {
		r.t.Fatalf("play of %s ordered no start: %+v", content, fx)
	}
	a, ok := answerFor(r.started(cl, nil), tk)
	if !ok || a.err != nil {
		r.t.Fatalf("play of %s: %+v", content, a)
	}
	return a.v.(*wire.PlayOK)
}

func startFor(fx effects, owner uint64) *call {
	for i, cl := range fx.calls {
		if cl.typ == wire.TypeStartStream && cl.owner == owner {
			return &fx.calls[i]
		}
	}
	return nil
}

func answerFor(fx effects, owner uint64) (answer, bool) {
	for _, a := range fx.answers {
		if a.owner == owner {
			return a, true
		}
	}
	return answer{}, false
}

func notesOf(fx effects, typ string) []note {
	var out []note
	for _, n := range fx.notes {
		if n.typ == typ {
			out = append(out, n)
		}
	}
	return out
}

var movie = wire.ContentDecl{Name: "movie", Type: "mpeg1", Size: 640 * units.KB}

// (a) A play queues on a full disk, a stream-ended places it, and a tick
// past QueueTimeout refuses the one behind it.
func TestCoreQueueReleaseAndDeadline(t *testing.T) {
	r := newCoreRig(t, Config{QueueTimeout: 10 * time.Second})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie) // one mpeg1 slot
	for conn := connID(2); conn <= 4; conn++ {
		r.client(conn)
	}
	first := r.admit(2, "movie", "tv")
	second, fx := r.play(3, "movie", "tv", true)
	if len(fx.calls)+len(fx.answers) != 0 || fx.wake != r.now.Add(10*time.Second) {
		t.Fatalf("a play on a full disk decided %+v, want it parked until its deadline", fx)
	}
	r.now = r.now.Add(time.Second)
	third, _ := r.play(4, "movie", "tv", true)
	fx = r.in(func() { r.c.streamEnded(wire.StreamEnded{Stream: first.Streams[0].Stream, Cause: "eof"}) })
	cl := startFor(fx, second)
	if cl == nil || startFor(fx, third) != nil {
		t.Fatalf("stream-ended decided %+v, want the first queued play started", fx)
	}
	if a, ok := answerFor(r.started(cl, nil), second); !ok || a.err != nil {
		t.Fatalf("queued play: %+v", a)
	}
	if fx = r.advance(9 * time.Second); len(fx.answers) != 0 {
		t.Fatalf("a tick before the deadline refused %+v", fx.answers)
	}
	fx = r.advance(time.Second)
	if a, ok := answerFor(fx, third); !ok || !strings.Contains(fmt.Sprint(a.err), "deadline") {
		t.Fatalf("tick at the deadline: %+v", fx)
	}
	if len(r.c.queue) != 0 || !fx.wake.IsZero() {
		t.Fatalf("queue after the deadline: %d waiting, next deadline %v", len(r.c.queue), fx.wake)
	}
}

// (b) A queued request that does not fit holds back no smaller one
// behind it.
func TestCoreQueueNoHeadOfLineBlocking(t *testing.T) {
	r := newCoreRig(t, Config{})
	clip := wire.ContentDecl{Name: "clip", Type: "rtp-video", Size: 640 * units.KB}
	r.msu(1, "m1", 3000*units.Kbps, 900, movie, clip) // two mpeg1 slots or one rtp-video
	r.client(2)
	held := r.admit(2, "movie", "tv")
	r.admit(2, "movie", "tv")
	big, _ := r.play(2, "clip", "v", true)
	small, _ := r.play(2, "movie", "tv", true)
	fx := r.in(func() { r.c.streamEnded(wire.StreamEnded{Stream: held.Streams[0].Stream, Cause: "eof"}) })
	if startFor(fx, big) != nil || startFor(fx, small) == nil {
		t.Fatalf("after one slot freed: %+v, want only the smaller play started", fx)
	}
	if len(r.c.queue) != 1 || r.c.queue[0].owner != big {
		t.Fatalf("queue holds %d, want the big play still waiting", len(r.c.queue))
	}
}

// (c) An MSU going down re-homes its play groups: onto a replica when
// there is one, told as migrated; lost at the deadline when there is
// none. A failed start puts the group back on the queue, and its own
// rollback does not retry it.
func TestCoreMSUDown(t *testing.T) {
	t.Run("replica", func(t *testing.T) {
		r := newCoreRig(t, Config{})
		r.msu(1, "m1", 1500*units.Kbps, 900, movie)
		r.msu(2, "m2", 1500*units.Kbps, 900, movie)
		r.client(3)
		ok := r.admit(3, "movie", "tv")
		fx := r.in(func() { r.c.connDown(r.now, 1) })
		cl := startFor(fx, 0)
		if cl == nil || cl.to != 2 || cl.req.(wire.StartStream).Spec.Stream != ok.Streams[0].Stream {
			t.Fatalf("m1 down decided %+v, want the stream started on m2", fx)
		}
		fx = r.started(cl, nil)
		if n := notesOf(fx, wire.TypeStreamMigrated); len(n) != 1 || n[0].to != 3 || n[0].body.(wire.StreamMigrated).MSU != "m2" {
			t.Fatalf("start on m2 decided %+v, want a migrated notice", fx)
		}
	})
	t.Run("no replica", func(t *testing.T) {
		r := newCoreRig(t, Config{QueueTimeout: 5 * time.Second})
		r.msu(1, "m1", 1500*units.Kbps, 900, movie)
		r.client(3)
		r.admit(3, "movie", "tv")
		if fx := r.in(func() { r.c.connDown(r.now, 1) }); len(fx.calls)+len(fx.notes) != 0 {
			t.Fatalf("m1 down with no replica decided %+v", fx)
		}
		fx := r.advance(5 * time.Second)
		if n := notesOf(fx, wire.TypeStreamLost); len(n) != 1 || n[0].to != 3 {
			t.Fatalf("deadline decided %+v, want a lost notice", fx)
		}
	})
	t.Run("failed start", func(t *testing.T) {
		r := newCoreRig(t, Config{QueueTimeout: 5 * time.Second})
		r.msu(1, "m1", 1500*units.Kbps, 900, movie)
		r.msu(2, "m2", 3000*units.Kbps, 900, movie)
		r.client(3)
		r.admit(3, "movie", "tv")
		other := r.admit(3, "movie", "tv") // on m2, the only replica left
		cl := startFor(r.in(func() { r.c.connDown(r.now, 1) }), 0)
		if cl == nil || cl.to != 2 {
			t.Fatal("m1 down started nothing on m2")
		}
		fx := r.started(cl, errors.New("disk refused the stream"))
		if startFor(fx, 0) != nil || len(r.c.queue) != 1 {
			t.Fatalf("failed start decided %+v with %d waiting, want the group back on the queue untried", fx, len(r.c.queue))
		}
		if n := notesOf(fx, wire.TypeStopStream); len(n) != 0 {
			t.Fatalf("a start that never succeeded stopped %+v", n)
		}
		// A release elsewhere is worth another try.
		fx = r.in(func() { r.c.streamEnded(wire.StreamEnded{Stream: other.Streams[0].Stream, Cause: "eof"}) })
		if cl = startFor(fx, 0); cl == nil {
			t.Fatalf("a release decided %+v, want the group tried again", fx)
		}
		r.started(cl, errors.New("disk refused the stream"))
		fx = r.advance(5 * time.Second)
		if n := notesOf(fx, wire.TypeStreamLost); len(n) != 1 || !strings.Contains(n[0].body.(wire.StreamLost).Reason, "disk refused") {
			t.Fatalf("deadline decided %+v, want lost with the replica's refusal", fx)
		}
	})
}

// (d) A hello under a name still registered waits for the old
// registration's msu-down, or its grace.
func TestCoreReregistration(t *testing.T) {
	hello := func(r *coreRig, conn connID) (uint64, effects) {
		tk := r.ticket()
		return tk, r.in(func() {
			r.c.msuHello(r.now, tk, conn, wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m1",
				Disks: []wire.DiskInfo{{BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: 900}}})
		})
	}
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 0, 900)
	tk, fx := hello(r, 2)
	if _, ok := answerFor(fx, tk); ok || fx.wake != r.now.Add(reregisterGrace) {
		t.Fatalf("hello under a live name decided %+v, want it waiting out the grace", fx)
	}
	fx = r.in(func() { r.c.connDown(r.now, 1) })
	if a, ok := answerFor(fx, tk); !ok || a.err != nil || r.c.msus["m1"].conn != 2 {
		t.Fatalf("old connection down: %+v, want the new one registered", fx)
	}
	tk, _ = hello(r, 3)
	fx = r.advance(reregisterGrace)
	if a, ok := answerFor(fx, tk); !ok || !strings.Contains(fmt.Sprint(a.err), "already registered") {
		t.Fatalf("grace over: %+v, want the duplicate refused", fx)
	}
	if r.c.om.queued.Load() != 0 || r.c.om.rejected.Load() != 0 {
		t.Fatal("a waiting hello counted on the admission instruments")
	}
}

// (e) A queued play preempts a copy only when the preemption admits it.
func TestCoreQueuedPlayPreemptsCopy(t *testing.T) {
	r := newCoreRig(t, Config{})
	clip := wire.ContentDecl{Name: "clip", Type: "rtp-video", Size: 640 * units.KB}
	r.msu(1, "m1", 3000*units.Kbps, 900, movie, clip)
	r.msu(2, "m2", 3000*units.Kbps, 900)
	r.client(3)
	held := r.admit(3, "movie", "tv")
	// The clip needs the whole disk; the pressure plans a copy onto m2 at
	// the 1500 Kbps left idle.
	queued, fx := r.play(3, "clip", "v", true)
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeReplicate || len(r.c.replications) != 1 {
		t.Fatalf("queued play decided %+v, want one copy ordered", fx)
	}
	// A release with the movie still playing: tearing the copy down would
	// not admit the clip, so it stays.
	fx = r.in(func() { r.c.cacheReport(1, wire.CacheReport{Seq: 1, Disk: 0}) })
	if len(notesOf(fx, wire.TypeReplicateAbort)) != 0 || len(r.c.replications) != 1 || startFor(fx, queued) != nil {
		t.Fatalf("a useless preemption: %+v", fx)
	}
	// The movie ends: the copy's room plus the movie's admits the clip.
	fx = r.in(func() { r.c.streamEnded(wire.StreamEnded{Stream: held.Streams[0].Stream, Cause: "eof"}) })
	if n := notesOf(fx, wire.TypeReplicateAbort); len(n) != 1 || n[0].to != 2 || startFor(fx, queued) == nil {
		t.Fatalf("after the movie ended: %+v, want the copy aborted and the clip started", fx)
	}
	if len(r.c.replications) != 0 {
		t.Fatal("the preempted copy is still in flight")
	}
}

// walkInputs drives the core with seed's random sequence of inputs —
// play, record, stream-ended, msu-down, msu-hello, start outcome (and
// the other calls' outcomes), cache report and tick — and checks after
// every one of them that each ledger's reserved total equals its live
// grants, that every active stream's MSU is registered and alive, and
// that running the queue again places nothing. It returns a transcript
// of every decision, so two walks from one seed can be compared.
func walkInputs(t *testing.T, seed int64, steps int) string {
	r := newCoreRig(t, Config{QueueTimeout: 20 * time.Second, Replication: ReplicationConfig{MaxReplicas: 3}})
	c := r.c
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	titles := []wire.ContentDecl{movie, {Name: "clip", Type: "rtp-video", Size: 640 * units.KB}, {Name: "talk", Type: "vat-audio", Size: 64 * units.KB}}
	msus := []core.MSUID{"m1", "m2", "m3"}
	conns := map[core.MSUID]connID{}
	next := connID(100)
	var calls []call
	var retired []*schedule.Ledger
	up := func(id core.MSUID) effects {
		next++
		conns[id] = next
		var decl []wire.ContentDecl
		for _, d := range titles {
			if rng.Intn(2) == 0 {
				decl = append(decl, d)
			}
		}
		tk := r.ticket()
		return r.in(func() {
			c.msuHello(r.now, tk, next, wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: id, TransferAddr: "transfer:" + string(id),
				Disks: []wire.DiskInfo{{BlockSize: 64 * 1024, TotalBlocks: 400, FreeBlocks: 20 + int64(rng.Intn(100)), Bandwidth: 6000 * units.Kbps, Contents: decl}}})
		})
	}
	var fx effects
	for _, id := range msus {
		fx = up(id)
		calls = append(calls, fx.calls...)
	}
	for conn := connID(1); conn <= 4; conn++ {
		r.client(conn)
	}
	for conn := connID(1); conn <= 4; conn++ {
		if _, err := c.registerPort(conn, wire.RegisterPort{Name: "a", Type: "vat-audio", Addr: "a:3"}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(16); {
		case op < 4:
			title := titles[rng.Intn(len(titles))]
			port := map[string]string{"mpeg1": "tv", "rtp-video": "v", "vat-audio": "a"}[title.Type]
			what = "play " + title.Name
			_, fx = r.play(connID(1+rng.Intn(4)), title.Name, port, rng.Intn(2) == 0)
		case op < 5:
			tk := r.ticket()
			what = "record"
			fx = r.in(func() {
				c.record(r.now, tk, connID(1+rng.Intn(4)), wire.Record{Content: fmt.Sprintf("rec%d", step), Type: "mpeg1", Port: "tv",
					Estimate: time.Duration(1+rng.Intn(20)) * time.Second, ControlAddr: "a:9", Wait: rng.Intn(2) == 0})
			})
		case op < 7:
			what = "stream-ended"
			var ids []core.StreamID
			for id := range c.active {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				continue
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[rng.Intn(len(ids))]
			fx = r.in(func() { c.streamEnded(wire.StreamEnded{Stream: id, Cause: "eof"}) })
		case op < 8:
			id := msus[rng.Intn(len(msus))]
			what = "msu-down " + string(id)
			if m := c.msus[id]; m.alive {
				retired = append(retired, msuLedgers(m)...)
			}
			fx = r.in(func() { c.connDown(r.now, conns[id]) })
		case op < 9:
			id := msus[rng.Intn(len(msus))]
			what = "msu-hello " + string(id)
			if c.msus[id].alive {
				continue
			}
			fx = up(id)
		case op < 13:
			if len(calls) == 0 {
				continue
			}
			i := rng.Intn(len(calls))
			cl := calls[i]
			calls = append(calls[:i], calls[i+1:]...)
			var err error
			if rng.Intn(4) == 0 {
				err = errors.New("refused")
			}
			what = fmt.Sprintf("%s outcome %v", cl.typ, err)
			fx = r.started(&cl, err)
		case op < 14:
			id := msus[rng.Intn(len(msus))]
			what = "cache report " + string(id)
			var cov []wire.ContentCoverage
			for _, d := range titles {
				cov = append(cov, wire.ContentCoverage{Name: d.Name, CachedPages: int64(rng.Intn(11)), TotalPages: 10, Players: rng.Intn(3)})
			}
			fx = r.in(func() { c.cacheReport(conns[id], wire.CacheReport{Seq: uint64(step + 1), Disk: 0, Coverage: cov}) })
		default:
			what = "tick"
			fx = r.advance(time.Duration(rng.Intn(8)) * time.Second)
		}
		calls = append(calls, fx.calls...)
		fmt.Fprintf(&log, "%d %s:", step, what)
		for _, cl := range fx.calls {
			fmt.Fprintf(&log, " call %d %s %d;", cl.owner, cl.typ, cl.to)
		}
		for _, n := range fx.notes {
			fmt.Fprintf(&log, " note %s %d %+v;", n.typ, n.to, n.body)
		}
		for _, a := range fx.answers {
			fmt.Fprintf(&log, " answer %d %v;", a.owner, a.err)
		}
		fmt.Fprintf(&log, " wake %v\n", fx.wake)

		when := fmt.Sprintf("step %d (%s)", step, what)
		var live []*schedule.Ledger
		for _, m := range c.msus {
			if m.alive {
				live = append(live, msuLedgers(m)...)
			}
		}
		checkConservation(t, c, append(live, retired...), when)
		for _, a := range c.active {
			if m := c.msus[a.msu]; m == nil || !m.alive {
				t.Fatalf("%s: stream %d active on %s, which is not up", when, a.id, a.msu)
			}
		}
		if again := c.take(r.now); len(again.calls)+len(again.notes)+len(again.answers) != 0 {
			t.Fatalf("%s: the queue run again decided %+v", when, again)
		}
	}
	for _, want := range []string{wire.TypeStreamMigrated, wire.TypeStreamLost, wire.TypeStopStream, wire.TypeReplicateAbort, wire.TypeDeleteContent, "deadline"} {
		if !strings.Contains(log.String(), want) {
			t.Fatalf("walk too tame: no %s in %d steps", want, steps)
		}
	}
	return log.String()
}

// (f) A fresh play's StartStream outcome is its own verdict: a
// stream-ended, or its MSU going down, taken before the outcome does not
// turn a stream the MSU started into a refusal. The client hears PlayOK,
// the MSU no StopStream, the ledger is released once and nothing counts
// as rejected; a group its MSU's failure released is re-homed like any
// orphan.
func TestCoreEndedBeforeStartOutcome(t *testing.T) {
	// startedAfter plays movie on conn 3, feeds between before the start's
	// outcome, and checks the outcome's verdict.
	startedAfter := func(t *testing.T, r *coreRig, between func(core.StreamID)) effects {
		t.Helper()
		tk, fx := r.play(3, "movie", "tv", false)
		cl := startFor(fx, tk)
		if cl == nil {
			t.Fatalf("play ordered no start: %+v", fx)
		}
		id := cl.req.(wire.StartStream).Spec.Stream
		rejected := r.c.om.rejected.Load()
		r.in(func() { between(id) })
		fx = r.started(cl, nil)
		a, ok := answerFor(fx, tk)
		if !ok || a.err != nil || a.v.(*wire.PlayOK).Streams[0].Stream != id {
			t.Fatalf("the start's outcome answered %+v, want PlayOK for stream %d", a, id)
		}
		if n := notesOf(fx, wire.TypeStopStream); len(n) != 0 {
			t.Fatalf("a started stream was stopped: %+v", n)
		}
		if n := r.c.om.rejected.Load(); n != rejected {
			t.Fatalf("admission_rejected_total went from %d to %d", rejected, n)
		}
		return fx
	}
	t.Run("stream-ended", func(t *testing.T) {
		r := newCoreRig(t, Config{})
		r.msu(1, "m1", 1500*units.Kbps, 900, movie) // one mpeg1 slot
		r.client(3)
		m := r.c.msus["m1"]
		startedAfter(t, r, func(id core.StreamID) {
			r.c.streamEnded(wire.StreamEnded{Stream: id, Cause: "eof"})
		})
		checkConservation(t, r.c, msuLedgers(m), "after the outcome")
		if m.net.Reserved() != 0 || m.disks[0].bw.Reserved() != 0 {
			t.Fatalf("net %d, disk %d reserved after the stream ended", m.net.Reserved(), m.disks[0].bw.Reserved())
		}
		// The slot came back once: one play fits, the next does not.
		r.admit(3, "movie", "tv")
		tk, fx := r.play(3, "movie", "tv", false)
		if a, ok := answerFor(fx, tk); !ok || a.err == nil {
			t.Fatalf("a play past the one slot: %+v", fx)
		}
	})
	t.Run("msu-down", func(t *testing.T) {
		r := newCoreRig(t, Config{})
		r.msu(1, "m1", 1500*units.Kbps, 900, movie)
		r.msu(2, "m2", 1500*units.Kbps, 900, movie)
		r.client(3)
		// m1 goes first: the play lands there.
		var id core.StreamID
		fx := startedAfter(t, r, func(s core.StreamID) {
			id = s
			r.c.connDown(r.now, 1)
		})
		cl := startFor(fx, 0)
		if cl == nil || cl.to != 2 || cl.req.(wire.StartStream).Spec.Stream != id {
			t.Fatalf("the outcome decided %+v, want stream %d re-homed on m2", fx, id)
		}
		if n := notesOf(r.started(cl, nil), wire.TypeStreamMigrated); len(n) != 1 || n[0].to != 3 {
			t.Fatalf("the start on m2 told the client %+v, want migrated", n)
		}
	})
}
