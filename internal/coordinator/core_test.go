package coordinator

// The core driven by hand: a Coordinator that never listens, whose
// inputs are called directly and whose decisions are read off the
// outbox, on a clock that moves only when a test moves it. No socket,
// no goroutine.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/schedule"
	"calliope/internal/units"
	"calliope/internal/wire"
)

type coreRig struct {
	t       testing.TB
	c       *Coordinator
	now     time.Time
	tickets uint64
}

func newCoreRig(t testing.TB, cfg Config) *coreRig {
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

// client opens a session on conn with an mpeg1 port "tv", an rtp-video
// port "v", a vat-audio port "a" and a seminar port "sem" of the last
// two.
func (r *coreRig) client(conn connID) {
	r.t.Helper()
	if _, err := r.c.hello(conn, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}); err != nil {
		r.t.Fatal(err)
	}
	for _, p := range []wire.RegisterPort{{Name: "tv", Type: "mpeg1", Addr: "a:1"}, {Name: "v", Type: "rtp-video", Addr: "a:2"},
		{Name: "a", Type: "vat-audio", Addr: "a:3"}, {Name: "sem", Type: "seminar", Components: map[string]string{"rtp-video": "v", "vat-audio": "a"}}} {
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

// seminar lists "seminar", a seminar title of clip and talk, as a
// composite recording's last commit publishes it: with no location of
// its own.
func (r *coreRig) seminar() {
	r.t.Helper()
	info := core.ContentInfo{Name: "seminar", Type: "seminar", Children: []string{clip.Name, talk.Name}}
	if err := r.c.apply(admindb.PutContent(admindb.ContentRecord{Info: info})); err != nil {
		r.t.Fatal(err)
	}
}

// endStream feeds stream id's stream-ended from the connection of the
// MSU it stands on, as that MSU would send it.
func endStream(c *Coordinator, id core.StreamID, cause string) {
	var conn connID
	if a := c.active[id]; a != nil {
		conn = c.msus[a.msu].conn
	}
	c.streamEnded(conn, wire.StreamEnded{Stream: id, Cause: cause})
}

// started answers call cl and takes what that decided. A StartStream
// answered OK replies for each of its streams, as an MSU does.
func (r *coreRig) started(cl *call, err error) effects {
	if start, ok := cl.req.(wire.StartStream); ok && err == nil {
		*cl.resp.(*[]wire.StartStreamOK) = make([]wire.StartStreamOK, len(start.Specs))
	}
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

var (
	movie = wire.ContentDecl{Name: "movie", Type: "mpeg1", Size: 640 * units.KB}
	clip  = wire.ContentDecl{Name: "clip", Type: "rtp-video", Size: 640 * units.KB}
	talk  = wire.ContentDecl{Name: "talk", Type: "vat-audio", Size: 64 * units.KB}
)

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
	fx = r.in(func() { endStream(r.c, first.Streams[0].Stream, "eof") })
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
	r.msu(1, "m1", 3000*units.Kbps, 900, movie, clip) // two mpeg1 slots or one rtp-video
	r.client(2)
	held := r.admit(2, "movie", "tv")
	r.admit(2, "movie", "tv")
	big, _ := r.play(2, "clip", "v", true)
	small, _ := r.play(2, "movie", "tv", true)
	fx := r.in(func() { endStream(r.c, held.Streams[0].Stream, "eof") })
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
		// The group keeps its ID; its stream is a new one.
		if cl == nil || cl.to != 2 {
			t.Fatalf("m1 down decided %+v, want the stream started on m2", fx)
		}
		spec := cl.req.(wire.StartStream).Specs[0]
		if spec.Group != ok.Group || spec.Stream <= ok.Streams[0].Stream {
			t.Fatalf("the re-dispatch names stream %d of group %d, want a stream after %d of group %d", spec.Stream, spec.Group, ok.Streams[0].Stream, ok.Group)
		}
		fx = r.started(cl, nil)
		n := notesOf(fx, wire.TypeStreamMigrated)
		if len(n) != 1 || n[0].to != 3 || n[0].body.(wire.StreamMigrated).MSU != "m2" || n[0].body.(wire.StreamMigrated).Streams[0].Stream != spec.Stream {
			t.Fatalf("start on m2 decided %+v, want a migrated notice naming stream %d", fx, spec.Stream)
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
		id := cl.req.(wire.StartStream).Specs[0].Stream
		fx := r.started(cl, errors.New("disk refused the stream"))
		if startFor(fx, 0) != nil || len(r.c.queue) != 1 {
			t.Fatalf("failed start decided %+v with %d waiting, want the group back on the queue untried", fx, len(r.c.queue))
		}
		// One StopStream quits whatever m2 began of the group; an MSU
		// ignores one for a group it does not hold.
		if n := notesOf(fx, wire.TypeStopStream); len(n) != 1 || n[0].to != 2 || n[0].body.(wire.StopStream).Stream != id {
			t.Fatalf("the failed start stopped %+v, want stream %d on m2 once", n, id)
		}
		// A release elsewhere is worth another try.
		fx = r.in(func() { endStream(r.c, other.Streams[0].Stream, "eof") })
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

// A delete in flight fences its title. While m1's DeleteContent is out,
// a play of the title is refused and starts nothing. When m2 then refuses
// its own, the catalog drops the replica m1 removed, and only that one,
// and m1's disk gets its space back.
func TestCoreDeleteFencesItsTitle(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie)
	r.msu(2, "m2", 1500*units.Kbps, 900, movie)
	r.client(3)
	space := r.c.msus["m1"].disks[0].space
	free := space.Available()
	del := r.ticket()
	fx := r.in(func() { r.c.deleteContent(del, 3, "movie") })
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeDeleteContent || fx.calls[0].to != 1 {
		t.Fatalf("the delete decided %+v, want m1's DeleteContent", fx)
	}
	onM1 := fx.calls[0]
	tk, fx := r.play(3, "movie", "tv", true)
	if a, ok := answerFor(fx, tk); startFor(fx, tk) != nil || !ok || !errors.Is(a.err, core.ErrNoSuchContent) {
		t.Fatalf("a play during the delete decided %+v, want it refused", fx)
	}
	fx = r.started(&onM1, nil)
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeDeleteContent || fx.calls[0].to != 2 {
		t.Fatalf("m1's delete done decided %+v, want m2's DeleteContent", fx)
	}
	fx = r.started(&fx.calls[0], errors.New("refused"))
	if a, ok := answerFor(fx, del); !ok || a.err == nil {
		t.Fatalf("m2 refused its delete and the client heard %v, %+v", ok, a)
	}
	rec := r.c.db.Content("movie")
	if rec == nil || fmt.Sprint(rec.Holders()) != "[m2/disk0]" {
		t.Fatalf("the catalog lists %v after m1's replica went, want only m2's", rec)
	}
	if got, want := space.Available(), free+blocksFor(movie.Size, 64*1024); got != want {
		t.Fatalf("m1's disk has %d blocks free, want %d with the title's back", got, want)
	}
	// The fence is down: the title plays from m2.
	tk, fx = r.play(3, "movie", "tv", false)
	if cl := startFor(fx, tk); cl == nil || cl.to != 2 {
		t.Fatalf("a play after the delete decided %+v, want it started on m2", fx)
	}
}

// report feeds a cache report from disk 0 of the MSU on conn, numbered
// past its registration's last, and takes what it decided.
func (r *coreRig) report(conn connID) effects {
	seq := r.c.bound[conn].(*msuState).lastReport + 1
	return r.in(func() { r.c.cacheReport(conn, wire.CacheReport{Seq: seq, Disk: 0}) })
}

// shed feeds a cache report from the MSU on conn, whose disk is under
// 10 % free, and returns the cold-replica drop it ordered.
func (r *coreRig) shed(conn connID) *call {
	r.t.Helper()
	fx := r.report(conn)
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeDeleteContent || fx.calls[0].to != conn {
		r.t.Fatalf("a cache report from a disk under 10 %% free decided %+v, want one DeleteContent to it", fx)
	}
	return &fx.calls[0]
}

// A down holder's copy is no copy: with movie on m1 and on m2, which is
// down, a second play queued on m1's full disk orders one copy from m1
// onto the empty m3.
func TestCoreDownHolderEarnsACopy(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 2000*units.Kbps, 900, movie) // one mpeg1 slot, 500 Kbps idle
	r.msu(2, "m2", 2000*units.Kbps, 900, movie)
	r.msu(4, "m3", 2000*units.Kbps, 900)
	r.in(func() { r.c.connDown(r.now, 2) })
	r.client(3)
	r.admit(3, "movie", "tv")
	_, fx := r.play(3, "movie", "tv", true)
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeReplicate || fx.calls[0].to != 4 ||
		fx.calls[0].req.(wire.Replicate).Source != "transfer:m1" {
		t.Fatalf("a play queued while m2 is down decided %+v, want one copy from m1 to m3", fx)
	}
}

// An orphaned group earns a copy as a fresh play does: with movie on m1
// and m2, each playing it once, m1 going down orders one copy from m2
// onto the empty m3 and starts nothing.
func TestCoreOrphanEarnsACopy(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 2000*units.Kbps, 900, movie) // one mpeg1 slot, 500 Kbps idle
	r.msu(2, "m2", 2000*units.Kbps, 900, movie)
	r.msu(4, "m3", 2000*units.Kbps, 900)
	r.client(3)
	if ok := r.admit(3, "movie", "tv"); ok.MSU != "m1" {
		t.Fatalf("the first play landed on %s, want m1", ok.MSU)
	}
	r.admit(3, "movie", "tv")
	fx := r.in(func() { r.c.connDown(r.now, 1) })
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeReplicate || fx.calls[0].to != 4 ||
		fx.calls[0].req.(wire.Replicate).Source != "transfer:m2" {
		t.Fatalf("m1 down with m2 full decided %+v, want one copy from m2 to m3", fx)
	}
}

// A group's copies land together, on an MSU holding or receiving
// another part of the group: with clip and talk on m1, a queued seminar
// play copies clip to m2, and talk follows it there, not to m3, where
// neither copy could serve the seminar.
func TestCoreCompositeCopiesLandTogether(t *testing.T) {
	// copies returns the copies fx ordered, as content→conn.
	copies := func(fx effects) map[string]connID {
		out := map[string]connID{}
		for _, cl := range fx.calls {
			if cl.typ == wire.TypeReplicate {
				out[cl.req.(wire.Replicate).Content] = cl.to
			}
		}
		return out
	}
	// rig lists the seminar over clip and talk on m1 (4000 Kbps, also
	// holding movie), beside the empty m2 and m3.
	rig := func(t *testing.T) *coreRig {
		r := newCoreRig(t, Config{})
		r.msu(1, "m1", 4000*units.Kbps, 900, clip, talk, movie)
		r.msu(2, "m2", 4000*units.Kbps, 900)
		r.msu(4, "m3", 4000*units.Kbps, 900)
		r.client(3)
		r.seminar()
		return r
	}
	t.Run("holding", func(t *testing.T) {
		// One seminar plays and leaves bandwidth for one copy at a time:
		// talk is copied once clip's copy has committed on m2.
		r := rig(t)
		tk, fx := r.play(3, "seminar", "sem", false)
		for cl := startFor(fx, tk); cl != nil; cl = startFor(fx, tk) {
			fx = r.started(cl, nil)
		}
		if a, ok := answerFor(fx, tk); !ok || a.err != nil {
			t.Fatalf("the first seminar play answered %v, %+v", ok, a)
		}
		_, fx = r.play(3, "seminar", "sem", true)
		if got := copies(fx); len(got) != 1 || got[clip.Name] != 2 {
			t.Fatalf("the queued seminar play ordered copies %v, want clip to m2 (conn 2)", got)
		}
		order := fx.calls[0].req.(wire.Replicate)
		var err error
		fx = r.in(func() {
			err = r.c.replicateDone(2, wire.ReplicateDone{ID: order.ID, Content: clip.Name, Disk: 0, Size: clip.Size})
		})
		if err != nil {
			t.Fatalf("clip's commit on m2: %v", err)
		}
		if got := copies(fx); len(got) != 1 || got[talk.Name] != 2 {
			t.Fatalf("clip's commit ordered copies %v, want talk to m2 (conn 2), beside clip", got)
		}
	})
	t.Run("receiving", func(t *testing.T) {
		// Two movies leave bandwidth for clip's copy alone; once one ends,
		// talk is copied while clip's copy is still in flight to m2.
		r := rig(t)
		first := r.admit(3, "movie", "tv")
		r.admit(3, "movie", "tv")
		_, fx := r.play(3, "seminar", "sem", true)
		if got := copies(fx); len(got) != 1 || got[clip.Name] != 2 {
			t.Fatalf("the queued seminar play ordered copies %v, want clip to m2 (conn 2)", got)
		}
		fx = r.in(func() { endStream(r.c, first.Streams[0].Stream, "eof") })
		if got := copies(fx); len(got) != 1 || got[talk.Name] != 2 {
			t.Fatalf("a movie's end ordered copies %v, want talk to m2 (conn 2), where clip is going", got)
		}
	})
}

// An orphan whose client is gone is refused, as lost with no one to
// tell, and is not counted as admitted: queue_wait_seconds does not move.
func TestCoreOrphanOfGoneClientIsLost(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie) // one mpeg1 slot each
	r.msu(2, "m2", 1500*units.Kbps, 900, movie)
	r.client(3)
	r.client(4)
	r.admit(3, "movie", "tv")
	other := r.admit(4, "movie", "tv")
	if fx := r.in(func() { r.c.connDown(r.now, 1) }); len(fx.calls) != 0 || len(r.c.queue) != 1 {
		t.Fatalf("m1 down with m2 full decided %+v with %d waiting, want the group waiting", fx, len(r.c.queue))
	}
	r.in(func() { r.c.connDown(r.now, 3) })
	lost := r.c.om.lost.Load()
	fx := r.in(func() { endStream(r.c, other.Streams[0].Stream, "eof") })
	if len(fx.calls)+len(fx.notes) != 0 || len(r.c.queue) != 0 || r.c.om.lost.Load() != lost+1 {
		t.Fatalf("a release decided %+v with %d waiting, want the group lost and nothing sent", fx, len(r.c.queue))
	}
	if n := r.c.ObsSnapshot().Hists["queue_wait_seconds"].Count; n != 0 {
		t.Fatalf("queue_wait_seconds observed %d waits for a group whose client was gone", n)
	}
}

// A disk under 10 % free never sheds a title's last live copy: with
// movie on m1's full disk and on m2, m1's cache report orders no drop
// while m2 is down, and one once m2 is back.
func TestCoreColdDropSparesLastLiveCopy(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 50, movie)
	r.msu(2, "m2", 1500*units.Kbps, 900, movie)
	r.in(func() { r.c.connDown(r.now, 2) })
	if fx := r.report(1); len(fx.calls) != 0 {
		t.Fatalf("m1's cache report with m2 down decided %+v, want no drop", fx)
	}
	r.msu(4, "m2", 1500*units.Kbps, 900, movie)
	r.shed(1)
}

// An administrative delete of a title whose cold-replica drop is out is
// refused as in use and sends nothing. Made after the drop lands, it
// removes the replica left, and each disk gets the title's blocks back
// once.
func TestCoreDeleteDuringColdDrop(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie)
	r.msu(2, "m2", 1500*units.Kbps, 50, movie)
	r.client(3)
	space1, space2 := r.c.msus["m1"].disks[0].space, r.c.msus["m2"].disks[0].space
	free1, free2 := space1.Available(), space2.Available()
	drop := r.shed(2)
	del := r.ticket()
	fx := r.in(func() { r.c.deleteContent(del, 3, "movie") })
	if a, ok := answerFor(fx, del); !ok || !errors.Is(a.err, core.ErrContentInUse) || len(fx.calls) != 0 {
		t.Fatalf("a delete during the drop decided %+v, want it refused as in use at once", fx)
	}
	r.started(drop, nil)
	del = r.ticket()
	fx = r.in(func() { r.c.deleteContent(del, 3, "movie") })
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeDeleteContent || fx.calls[0].to != 1 {
		t.Fatalf("a delete after the drop decided %+v, want m1's DeleteContent", fx)
	}
	if a, ok := answerFor(r.started(&fx.calls[0], nil), del); !ok || a.err != nil {
		t.Fatalf("the delete after the drop answered %v, %+v", ok, a)
	}
	if rec := r.c.db.Content("movie"); rec != nil {
		t.Fatalf("the catalog still lists %v", rec.Holders())
	}
	blocks := blocksFor(movie.Size, 64*1024)
	if got1, got2 := space1.Available(), space2.Available(); got1 != free1+blocks || got2 != free2+blocks {
		t.Fatalf("free blocks m1 %d, m2 %d; want %d, %d with the title's back once on each", got1, got2, free1+blocks, free2+blocks)
	}
}

// A title being deleted gains and sheds no replica: while m1's
// DeleteContent is out, a cache report from m2's full disk orders no
// drop and a copy's commit on m3 is refused, so the delete's end leaves
// nothing listed.
func TestCoreDeleteFencesReplicas(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie)
	r.msu(2, "m2", 1500*units.Kbps, 50, movie)
	r.msu(4, "m3", 1500*units.Kbps, 900)
	r.client(3)
	del := r.ticket()
	fx := r.in(func() { r.c.deleteContent(del, 3, "movie") })
	if len(fx.calls) != 1 || fx.calls[0].to != 1 {
		t.Fatalf("the delete decided %+v, want m1's DeleteContent", fx)
	}
	onM1 := fx.calls[0]
	if fx := r.in(func() { r.c.cacheReport(2, wire.CacheReport{Seq: 1, Disk: 0}) }); len(fx.calls) != 0 {
		t.Fatalf("m2's cache report during the delete decided %+v, want no drop", fx)
	}
	var err error
	r.in(func() { err = r.c.replicateDone(4, wire.ReplicateDone{ID: 99, Content: "movie", Size: movie.Size}) })
	if !errors.Is(err, core.ErrNoSuchContent) {
		t.Fatalf("a commit on m3 during the delete answered %v, want it refused", err)
	}
	fx = r.started(&onM1, nil)
	if len(fx.calls) != 1 || fx.calls[0].to != 2 {
		t.Fatalf("m1's delete done decided %+v, want m2's DeleteContent", fx)
	}
	if a, ok := answerFor(r.started(&fx.calls[0], nil), del); !ok || a.err != nil {
		t.Fatalf("the delete answered %v, %+v", ok, a)
	}
	if rec := r.c.db.Content("movie"); rec != nil {
		t.Fatalf("the catalog still lists movie on %v", rec.Holders())
	}
}

// A play never starts on a replica being shed: with m1's one slot busy
// and m2's drop out, it waits, before the drop lands and after.
func TestCorePlaySkipsReplicaBeingShed(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie) // one mpeg1 slot
	r.msu(2, "m2", 1500*units.Kbps, 50, movie)
	r.client(3)
	r.admit(3, "movie", "tv")
	drop := r.shed(2)
	tk, fx := r.play(3, "movie", "tv", true)
	if len(fx.calls)+len(fx.answers) != 0 {
		t.Fatalf("a play during m2's drop decided %+v, want it waiting for m1", fx)
	}
	if fx = r.started(drop, nil); startFor(fx, tk) != nil || len(r.c.queue) != 1 {
		t.Fatalf("the drop landing decided %+v, want the play still waiting", fx)
	}
}

// A drop that lands after the title's other holder re-registered without
// it takes the last replica, and the title leaves the catalog.
func TestCoreDropAfterReregisterTakesLastReplica(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie)
	r.msu(2, "m2", 1500*units.Kbps, 50, movie)
	drop := r.shed(2)
	r.in(func() { r.c.connDown(r.now, 1) })
	r.msu(4, "m1", 1500*units.Kbps, 900) // back without movie
	r.started(drop, nil)
	if rec := r.c.db.Content("movie"); rec != nil {
		t.Fatalf("movie is still listed with replicas %v", rec.Holders())
	}
}

// A delete's next DeleteContent goes to its MSU's registration of the
// moment: m2 re-registers on a new connection while m1's call is out,
// and the delete still reaches m2, answers OK, leaves nothing listed and
// gives the blocks back to the registration that removed them.
func TestCoreDeleteReachesReregisteredMSU(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie)
	r.msu(2, "m2", 1500*units.Kbps, 900, movie)
	r.client(3)
	del := r.ticket()
	fx := r.in(func() { r.c.deleteContent(del, 3, "movie") })
	if len(fx.calls) != 1 || fx.calls[0].to != 1 {
		t.Fatalf("the delete decided %+v, want m1's DeleteContent", fx)
	}
	onM1 := fx.calls[0]
	r.in(func() { r.c.connDown(r.now, 2) })
	r.msu(5, "m2", 1500*units.Kbps, 900, movie)
	fx = r.started(&onM1, nil)
	if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeDeleteContent || fx.calls[0].to != 5 {
		t.Fatalf("m1's delete done decided %+v, want m2's DeleteContent on its new connection", fx)
	}
	if a, ok := answerFor(r.started(&fx.calls[0], nil), del); !ok || a.err != nil {
		t.Fatalf("the delete answered %v, %+v", ok, a)
	}
	if rec := r.c.db.Content("movie"); rec != nil {
		t.Fatalf("the catalog still lists movie on %v", rec.Holders())
	}
	if got, want := r.c.msus["m2"].disks[0].space.Available(), 900+blocksFor(movie.Size, 64*1024); got != want {
		t.Fatalf("m2's new registration has %d blocks free, want %d with the title's back", got, want)
	}
}

// A composite title plays under its children's names: a delete of it
// while it plays is refused as in use and sends nothing. Once the play
// ends, the delete removes the children's replicas and all three
// entries leave the catalog.
func TestCoreDeleteCompositeInUse(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 20*units.Mbps, 900, clip, talk)
	r.client(3)
	r.seminar()
	tk, fx := r.play(3, "seminar", "sem", false)
	for cl := startFor(fx, tk); cl != nil; cl = startFor(fx, tk) {
		fx = r.started(cl, nil)
	}
	a, ok := answerFor(fx, tk)
	if !ok || a.err != nil {
		t.Fatalf("the seminar's play answered %v, %+v", ok, a)
	}
	del := r.ticket()
	fx = r.in(func() { r.c.deleteContent(del, 3, "seminar") })
	if a, ok := answerFor(fx, del); !ok || !errors.Is(a.err, core.ErrContentInUse) || len(fx.calls) != 0 {
		t.Fatalf("a delete of the playing seminar decided %+v, want it refused as in use at once", fx)
	}
	for _, s := range a.v.(*wire.PlayOK).Streams {
		r.in(func() { endStream(r.c, s.Stream, "eof") })
	}
	del = r.ticket()
	fx = r.in(func() { r.c.deleteContent(del, 3, "seminar") })
	var removed []string
	for len(fx.calls) == 1 && fx.calls[0].typ == wire.TypeDeleteContent {
		removed = append(removed, fx.calls[0].req.(wire.DeleteContent).Content)
		fx = r.started(&fx.calls[0], nil)
	}
	if a, ok := answerFor(fx, del); !ok || a.err != nil || fmt.Sprint(removed) != "[clip talk]" {
		t.Fatalf("the delete removed %v and answered %v, %+v; want clip and talk removed and OK", removed, ok, a)
	}
	if list := r.c.listContent(); len(list.Items) != 0 {
		t.Fatalf("the catalog still lists %+v", list.Items)
	}
}

// childLeaves, for a seminar listed over clip and talk on m1, runs leave —
// clip's last replica leaving the catalog — and checks the seminar
// went with it: unlisted, and a play of it refused as no such content.
func childLeaves(t *testing.T, leave func(r *coreRig)) {
	t.Helper()
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 20*units.Mbps, 900, clip, talk)
	r.client(3)
	r.seminar()
	leave(r)
	for _, item := range r.c.listContent().Items {
		if item.Name == "seminar" {
			t.Fatalf("the seminar is still listed over %v after clip left", item.Children)
		}
	}
	tk, fx := r.play(3, "seminar", "sem", false)
	if a, ok := answerFor(fx, tk); !ok || !errors.Is(a.err, core.ErrNoSuchContent) {
		t.Fatalf("a play of the seminar decided %+v, want it refused as no such content", fx)
	}
}

// A delete of a composite's child that answers OK unlists the composite.
func TestCoreDeleteChildUnlistsComposite(t *testing.T) {
	childLeaves(t, func(r *coreRig) {
		del := r.ticket()
		fx := r.in(func() { r.c.deleteContent(del, 3, clip.Name) })
		if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeDeleteContent {
			t.Fatalf("the delete of clip decided %+v, want one DeleteContent", fx)
		}
		if a, ok := answerFor(r.started(&fx.calls[0], nil), del); !ok || a.err != nil {
			t.Fatalf("the delete of clip answered %v, %+v", ok, a)
		}
	})
}

// An MSU that re-registers without a composite's child unlists the
// composite with the child's last replica.
func TestCoreReregisterWithoutChildUnlistsComposite(t *testing.T) {
	childLeaves(t, func(r *coreRig) {
		r.in(func() { r.c.connDown(r.now, 1) })
		r.msu(4, "m1", 20*units.Mbps, 900, talk)
	})
}

// Every replica that leaves the catalog is one replica-drop event, with
// its MSU, disk and title and, in Detail, why it left.
func TestCoreReplicaDropEvents(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 1500*units.Kbps, 900, movie, clip)
	r.msu(2, "m2", 1500*units.Kbps, 50, movie)
	r.client(3)
	_, since := r.c.Events(0, 0, 0)
	r.started(r.shed(2), nil)
	del := r.ticket()
	fx := r.in(func() { r.c.deleteContent(del, 3, "movie") })
	if len(fx.calls) != 1 {
		t.Fatalf("the delete decided %+v, want m1's DeleteContent", fx)
	}
	r.started(&fx.calls[0], nil)
	r.in(func() { r.c.connDown(r.now, 1) })
	r.msu(4, "m1", 1500*units.Kbps, 900) // back without clip
	evs, _ := r.c.Events(since, 0, 0)
	var got []string
	for _, ev := range evs {
		if ev.Kind == obs.EvReplDrop {
			got = append(got, fmt.Sprintf("%s/%d %s: %s", ev.MSU, ev.Disk, ev.Content, ev.Detail))
		}
	}
	want := []string{
		"m2/0 movie: cold on a disk under 10 % free",
		"m1/0 movie: deleted",
		"m1/0 clip: no longer declared by the MSU",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica-drop events %q, want %q", got, want)
	}
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
	fx = r.in(func() { endStream(r.c, held.Streams[0].Stream, "eof") })
	if n := notesOf(fx, wire.TypeReplicateAbort); len(n) != 1 || n[0].to != 2 || startFor(fx, queued) == nil {
		t.Fatalf("after the movie ended: %+v, want the copy aborted and the clip started", fx)
	}
	if len(r.c.replications) != 0 {
		t.Fatal("the preempted copy is still in flight")
	}
}

// walkInputs drives the core with seed's random sequence of inputs —
// play, record, stream-ended (at once, or late: an MSU's notices for a
// stream it stopped and for each member of a start it began whose outcome
// failed wait in its outbox and are delivered in order from its
// connection after later inputs), msu-down, msu-hello, start outcome (and
// the other calls' outcomes), cache report, administrative delete and
// tick — over three titles and a seminar of two of them, listed again
// at an MSU's hello once it is gone and both of its children are
// listed. After every input it checks that each ledger's reserved total
// equals its live grants, that every active stream's MSU is registered
// and alive, that a listed title has replicas if and only if it has no
// children, that every listed composite's children are listed, that
// every location on a live registration names one of its disks, that a
// drop leaves its title another live holder when it is ordered, that
// every removal in flight targets a replica the catalog lists and no
// stream runs on, that no spec of a StartStream names a stream whose
// stream-ended the core took, stale or not, and that running the queue
// again places nothing. A walk in which no late notice ended a stream or
// no stale one was dropped is too tame. It returns a transcript of every
// decision, so two walks from one seed can be compared.
func walkInputs(t *testing.T, seed int64, steps int) string {
	r := newCoreRig(t, Config{QueueTimeout: 20 * time.Second, Replication: ReplicationConfig{MaxReplicas: 3}})
	c := r.c
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	titles := []wire.ContentDecl{movie, clip, talk}
	// named is what plays and deletes draw from: the titles MSUs declare
	// and the seminar the Coordinator lists.
	named := append(slices.Clone(titles), wire.ContentDecl{Name: "seminar", Type: "seminar"})
	msus := []core.MSUID{"m1", "m2", "m3"}
	conns := map[core.MSUID]connID{}
	next := connID(100)
	var calls []call
	var retired []*schedule.Ledger
	// deletes holds the administrative deletes' titles by ticket, and
	// outcomes how many were answered "ok", "composite ok" or "in use";
	// groups counts the two-stream StartStreams answered OK and refused.
	deletes, outcomes, groups := map[uint64]string{}, map[string]int{}, map[bool]int{}
	ordered := map[*removal]bool{}    // the drops already checked
	ended := map[core.StreamID]bool{} // the streams whose stream-ended the core took
	// outbox holds each MSU's stream-ended notices not yet delivered, in
	// the order its connection sends them: for a stream it stopped, and
	// for each member of a start it began whose outcome failed (a reply
	// that timed out). A connection that goes down delivers none of them.
	// late counts the notices delivered from it that ended a stream, and
	// stale those that ended nothing.
	outbox := map[core.MSUID][]core.StreamID{}
	late, stale := 0, 0
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
	seminar := func() {
		if c.db.Content("seminar") == nil && c.db.Content(clip.Name) != nil && c.db.Content(talk.Name) != nil {
			r.seminar()
		}
	}
	var fx effects
	for _, id := range msus {
		fx = up(id)
		calls = append(calls, fx.calls...)
	}
	for conn := connID(1); conn <= 4; conn++ {
		r.client(conn)
	}
	seminar()
	for step := 0; step < steps; step++ {
		var what string
		switch op := rng.Intn(18); {
		case op < 4:
			title := named[rng.Intn(len(named))]
			port := map[string]string{"mpeg1": "tv", "rtp-video": "v", "vat-audio": "a", "seminar": "sem"}[title.Type]
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
			if rng.Intn(2) == 0 {
				// The MSU stopped the stream; its notice comes later.
				what = fmt.Sprintf("stream %d stopped", id)
				outbox[c.active[id].msu] = append(outbox[c.active[id].msu], id)
				fx = effects{}
				break
			}
			ended[id] = true
			fx = r.in(func() { endStream(c, id, "eof") })
		case op < 8:
			id := msus[rng.Intn(len(msus))]
			if len(outbox[id]) == 0 {
				continue
			}
			s := outbox[id][0]
			outbox[id] = outbox[id][1:]
			what = fmt.Sprintf("late stream-ended %d from %s", s, id)
			if a := c.active[s]; a != nil && a.msu == id {
				late++
			} else {
				stale++
			}
			ended[s] = true
			fx = r.in(func() { c.streamEnded(conns[id], wire.StreamEnded{Stream: s, Cause: "stop"}) })
		case op < 9:
			id := msus[rng.Intn(len(msus))]
			what = "msu-down " + string(id)
			if m := c.msus[id]; m.alive {
				retired = append(retired, msuLedgers(m)...)
			}
			delete(outbox, id)
			fx = r.in(func() { c.connDown(r.now, conns[id]) })
		case op < 10:
			id := msus[rng.Intn(len(msus))]
			what = "msu-hello " + string(id)
			if c.msus[id].alive {
				continue
			}
			fx = up(id)
			seminar()
		case op < 14:
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
			start, ok := cl.req.(wire.StartStream)
			if ok && len(start.Specs) == 2 {
				groups[err == nil]++
			}
			if id := msus[rng.Intn(len(msus))]; ok && err != nil && conns[id] == cl.to && c.msus[id].alive && rng.Intn(2) == 0 {
				// The MSU began the start: the StopStream tears it down.
				for _, spec := range start.Specs {
					outbox[id] = append(outbox[id], spec.Stream)
				}
			}
			fx = r.started(&cl, err)
		case op < 15:
			id := msus[rng.Intn(len(msus))]
			what = "cache report " + string(id)
			var cov []wire.ContentCoverage
			for _, d := range titles {
				cov = append(cov, wire.ContentCoverage{Name: d.Name, CachedPages: int64(rng.Intn(11)), TotalPages: 10, Players: rng.Intn(3)})
			}
			fx = r.in(func() { c.cacheReport(conns[id], wire.CacheReport{Seq: uint64(step + 1), Disk: 0, Coverage: cov}) })
		case op < 16:
			// A seminar delete is refused while a stream of its children
			// runs, so the draw aims at the seminar when none does.
			title, aim := named[rng.Intn(len(named))], true
			for _, a := range c.active {
				aim = aim && a.content != clip.Name && a.content != talk.Name
			}
			if aim {
				title = named[len(named)-1]
			}
			what = "delete " + title.Name
			tk := r.ticket()
			deletes[tk] = title.Name
			fx = r.in(func() { c.deleteContent(tk, connID(1+rng.Intn(4)), title.Name) })
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
			switch name := deletes[a.owner]; {
			case name == "":
			case a.err == nil && name == "seminar":
				outcomes["composite ok"]++
			case a.err == nil:
				outcomes["ok"]++
			case errors.Is(a.err, core.ErrContentInUse):
				outcomes["in use"]++
			}
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
		for _, cl := range fx.calls {
			start, _ := cl.req.(wire.StartStream)
			for _, spec := range start.Specs {
				if ended[spec.Stream] {
					t.Fatalf("%s: stream %d is started on conn %d after it ended", when, spec.Stream, cl.to)
				}
			}
		}
		for _, a := range c.active {
			if m := c.msus[a.msu]; m == nil || !m.alive {
				t.Fatalf("%s: stream %d active on %s, which is not up", when, a.id, a.msu)
			}
		}
		for _, rec := range c.db.Contents() {
			if (len(rec.Locations) > 0) == (len(rec.Info.Children) > 0) {
				t.Fatalf("%s: %s is listed with replicas %v and children %v", when, rec.Info.Name, rec.Holders(), rec.Info.Children)
			}
			for _, child := range rec.Info.Children {
				if c.db.Content(child) == nil {
					t.Fatalf("%s: composite %s is listed without its child %s", when, rec.Info.Name, child)
				}
			}
		}
		for _, rec := range c.db.Contents() {
			for _, loc := range rec.Locations {
				if m := c.msus[loc.MSU]; m != nil && m.alive && (loc.Disk < 0 || loc.Disk >= len(m.disks)) {
					t.Fatalf("%s: %s is listed on %s/%d, and that registration has %d disks", when, rec.Info.Name, loc.MSU, loc.Disk, len(m.disks))
				}
			}
		}
		for name, rm := range c.removals {
			// A drop is checked at the input that ordered it: a holder may go
			// down after that, as it may under any copy.
			if rec := c.db.Content(name); !rm.whole && !ordered[rm] {
				others := slices.ContainsFunc(rec.Locations, func(loc admindb.Location) bool {
					m := c.msus[loc.MSU]
					return m != nil && m.alive && !slices.ContainsFunc(rm.targets, func(tg *replica) bool { return tg.m.id == loc.MSU })
				})
				if !others {
					t.Fatalf("%s: the drop of %s on %s leaves it no live copy (holders %v)", when, name, rm.targets[0].m.id, rec.Holders())
				}
				ordered[rm] = true
			}
			for _, tg := range append(slices.Clone(rm.targets), rm.gone...) {
				if rec := c.db.Content(tg.name); rec == nil || !slices.Contains(rec.Holders(), core.DiskID{MSU: tg.m.id, N: tg.n}) {
					t.Fatalf("%s: the removal of %s targets %s on %s/%d, which the catalog does not list", when, name, tg.name, tg.m.id, tg.n)
				}
				for _, a := range c.active {
					if a.content == tg.name && a.msu == tg.m.id {
						t.Fatalf("%s: stream %d runs %s on %s, a replica being removed", when, a.id, a.content, a.msu)
					}
				}
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
	for _, want := range []string{"ok", "composite ok", "in use"} {
		if outcomes[want] == 0 {
			t.Fatalf("walk too tame: no delete answered %s in %d steps", want, steps)
		}
	}
	if groups[true] == 0 || groups[false] == 0 {
		t.Fatalf("walk too tame: two-stream StartStreams answered OK %d and refused %d times in %d steps", groups[true], groups[false], steps)
	}
	if late == 0 || stale == 0 {
		t.Fatalf("walk too tame: %d late stream-ended ended a stream and %d stale ones ended nothing in %d steps", late, stale, steps)
	}
	return log.String()
}

// (f) A StartStream outcome is its own verdict, for a fresh play and a
// re-dispatch alike: a stream-ended, or its MSU going down, taken before
// the outcome does not turn a stream the MSU started into a refusal. The
// client hears PlayOK, or stream-migrated once, the MSU no StopStream,
// the ledger is released once and nothing counts as rejected; a group
// its MSU's failure released is re-homed like any orphan, and one that
// ended is not started again. A refused re-dispatch of a whole seminar
// sends one StopStream and waits on the queue, unless a member ended
// meanwhile, and then it is over. A group placed again takes new stream
// IDs, so a stale stream-ended of an earlier start ends none of them.
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
		id := cl.req.(wire.StartStream).Specs[0].Stream
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
			endStream(r.c, id, "eof")
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
		if cl == nil || cl.to != 2 || cl.req.(wire.StartStream).Specs[0].Stream <= id {
			t.Fatalf("the outcome decided %+v, want stream %d's group re-homed on m2 as a new stream", fx, id)
		}
		if n := notesOf(r.started(cl, nil), wire.TypeStreamMigrated); len(n) != 1 || n[0].to != 3 {
			t.Fatalf("the start on m2 told the client %+v, want migrated", n)
		}
	})
	// redispatchedAfter plays movie on m1 for conn 3, takes m1 down, feeds
	// between before the re-dispatch's outcome on m2, then the outcome, an
	// MSU's hello (a release) and the queue's deadline. The outcome counts
	// nothing as rejected, the client hears stream-migrated once, the MSU
	// no StopStream, and no second StartStream is ordered for the stream.
	redispatchedAfter := func(t *testing.T, between func(r *coreRig, id core.StreamID)) (*coreRig, *msuState) {
		t.Helper()
		r := newCoreRig(t, Config{QueueTimeout: 5 * time.Second})
		r.msu(1, "m1", 1500*units.Kbps, 900, movie) // one mpeg1 slot each
		r.msu(2, "m2", 1500*units.Kbps, 900, movie)
		r.client(3)
		r.admit(3, "movie", "tv")
		m2 := r.c.msus["m2"]
		cl := startFor(r.in(func() { r.c.connDown(r.now, 1) }), 0)
		if cl == nil || cl.to != 2 {
			t.Fatal("m1 down started nothing on m2")
		}
		id := cl.req.(wire.StartStream).Specs[0].Stream
		rejected := r.c.om.rejected.Load()
		r.in(func() { between(r, id) })
		fx := r.started(cl, nil)
		if n := r.c.om.rejected.Load(); n != rejected {
			t.Fatalf("admission_rejected_total went from %d to %d", rejected, n)
		}
		fxs := []effects{fx, r.msu(5, "m3", 1500*units.Kbps, 900), r.advance(5 * time.Second)}
		var migrated int
		for _, fx := range fxs {
			migrated += len(notesOf(fx, wire.TypeStreamMigrated))
			if n := notesOf(fx, wire.TypeStopStream); len(n) != 0 {
				t.Fatalf("a started stream was stopped: %+v", n)
			}
			for _, c := range fx.calls {
				if c.typ == wire.TypeStartStream && c.req.(wire.StartStream).Specs[0].Stream == id {
					t.Fatalf("stream %d was started again, on conn %d", id, c.to)
				}
			}
		}
		if migrated != 1 {
			t.Fatalf("the client heard stream-migrated %d times, want once", migrated)
		}
		checkConservation(t, r.c, msuLedgers(m2), "after the outcome")
		return r, m2
	}
	t.Run("re-dispatch, stream-ended", func(t *testing.T) {
		r, m2 := redispatchedAfter(t, func(r *coreRig, id core.StreamID) {
			endStream(r.c, id, "quit")
		})
		if m2.net.Reserved() != 0 || m2.disks[0].bw.Reserved() != 0 {
			t.Fatalf("m2: net %d, disk %d reserved after the stream ended", m2.net.Reserved(), m2.disks[0].bw.Reserved())
		}
		// The slot came back once: one play fits on m2, the next does not.
		if ok := r.admit(3, "movie", "tv"); ok.MSU != "m2" {
			t.Fatalf("a play after the stream ended landed on %s, want m2", ok.MSU)
		}
		tk, fx := r.play(3, "movie", "tv", false)
		if a, ok := answerFor(fx, tk); !ok || a.err == nil {
			t.Fatalf("a play past m2's one slot: %+v", fx)
		}
	})
	t.Run("re-dispatch, msu-down", func(t *testing.T) {
		_, m2 := redispatchedAfter(t, func(r *coreRig, _ core.StreamID) { r.c.connDown(r.now, 2) })
		for _, l := range msuLedgers(m2) {
			if l.Reserved() != 0 {
				t.Fatalf("m2's ledgers hold %d after it went down", l.Reserved())
			}
		}
	})
	// seminarRedispatched plays the seminar on m1 for conn 3, with to (on
	// conn 2) holding both parts too, and takes m1 down: it returns the
	// rig, to's registration and the re-dispatch's StartStream. The play
	// and the re-dispatch are each one StartStream naming both members.
	seminarRedispatched := func(t *testing.T, to core.MSUID) (*coreRig, *msuState, *call) {
		t.Helper()
		r := newCoreRig(t, Config{QueueTimeout: 5 * time.Second})
		r.msu(1, "m1", 20*units.Mbps, 900, clip, talk)
		r.msu(2, to, 20*units.Mbps, 900, clip, talk)
		r.seminar()
		r.client(3)
		tk, fx := r.play(3, "seminar", "sem", false)
		if len(fx.calls) != 1 || len(fx.calls[0].req.(wire.StartStream).Specs) != 2 {
			t.Fatalf("the seminar's play ordered %+v, want one StartStream of both members", fx.calls)
		}
		if a, ok := answerFor(r.started(&fx.calls[0], nil), tk); !ok || a.err != nil || a.v.(*wire.PlayOK).MSU != "m1" {
			t.Fatalf("the seminar's play answered %+v, want it on m1", a)
		}
		cl := startFor(r.in(func() { r.c.connDown(r.now, 1) }), 0)
		if cl == nil || cl.to != 2 || len(cl.req.(wire.StartStream).Specs) != 2 {
			t.Fatalf("m1 down ordered %+v, want one StartStream of both members on %s", cl, to)
		}
		return r, r.c.msus[to], cl
	}
	// overAfter feeds fxs' inputs' successors — an MSU's hello (a
	// release) and the queue's deadline — and checks that a group with a
	// member ended is over: no StartStream names the ended stream, the
	// client hears stream-lost once, and m's ledgers are back to zero.
	overAfter := func(t *testing.T, r *coreRig, m *msuState, ended core.StreamID, fxs ...effects) {
		t.Helper()
		fxs = append(fxs, r.msu(5, "m3", 1500*units.Kbps, 900), r.advance(5*time.Second))
		var lost int
		for _, fx := range fxs {
			lost += len(notesOf(fx, wire.TypeStreamLost))
			for _, c := range fx.calls {
				if c.typ == wire.TypeStartStream && slices.ContainsFunc(c.req.(wire.StartStream).Specs, func(s core.StreamSpec) bool { return s.Stream == ended }) {
					t.Fatalf("ended stream %d was started again, on conn %d", ended, c.to)
				}
			}
		}
		if lost != 1 {
			t.Fatalf("the client heard stream-lost %d times, want once", lost)
		}
		for _, l := range msuLedgers(m) {
			if l.Reserved() != 0 {
				t.Fatalf("%s's ledgers hold %d after the group ended", m.id, l.Reserved())
			}
		}
	}
	// migratedAfter runs a re-dispatch's StartStream cl, and any the queue
	// orders after it, to success, and checks that the client heard
	// stream-migrated once and no stream-lost, and that ids stand on m.
	migratedAfter := func(t *testing.T, r *coreRig, cl *call, m core.MSUID, ids ...core.StreamID) {
		t.Helper()
		var migrated, lost int
		for fx := r.started(cl, nil); ; fx = r.started(cl, nil) {
			migrated += len(notesOf(fx, wire.TypeStreamMigrated))
			lost += len(notesOf(fx, wire.TypeStreamLost))
			if cl = startFor(fx, 0); cl == nil {
				break
			}
		}
		if migrated != 1 || lost != 0 {
			t.Fatalf("the client heard stream-migrated %d times and stream-lost %d, want one migrated", migrated, lost)
		}
		for _, id := range ids {
			if a := r.c.active[id]; a == nil || a.msu != m {
				t.Fatalf("stream %d stands as %+v, want on %s", id, a, m)
			}
		}
	}
	// A seminar re-dispatched to m2 whose first member ends before m2
	// refuses the group (say, a reply that timed out while m2 started it
	// and the client quit) is over: the ended member is not started again
	// at the next release.
	t.Run("re-dispatch, member ended, group refused", func(t *testing.T) {
		r, m2, cl := seminarRedispatched(t, "m2")
		ended := cl.req.(wire.StartStream).Specs[0].Stream
		r.in(func() { endStream(r.c, ended, "quit") })
		overAfter(t, r, m2, ended, r.started(cl, errors.New("refused")))
	})
	// A seminar's re-dispatch that m2 refuses sends m2 one StopStream,
	// for the group's first stream, and waits on the queue; the next
	// release places the group on m2 again, as new streams, both standing.
	t.Run("re-dispatch, group refused, placed again", func(t *testing.T) {
		r, _, cl := seminarRedispatched(t, "m2")
		specs := cl.req.(wire.StartStream).Specs
		fx := r.started(cl, errors.New("refused"))
		if n := notesOf(fx, wire.TypeStopStream); len(n) != 1 || n[0].to != 2 || n[0].body.(wire.StopStream).Stream != specs[0].Stream {
			t.Fatalf("the refusal stopped %+v, want stream %d on m2 once", n, specs[0].Stream)
		}
		if startFor(fx, 0) != nil || len(notesOf(fx, wire.TypeStreamLost)) != 0 || len(r.c.queue) != 1 {
			t.Fatalf("the refusal decided %+v with %d waiting, want the group back on the queue", fx, len(r.c.queue))
		}
		cl = startFor(r.msu(5, "m3", 1500*units.Kbps, 900), 0)
		if cl == nil || cl.to != 2 {
			t.Fatalf("m3's hello ordered %+v, want the group started on m2 again", cl)
		}
		again := cl.req.(wire.StartStream).Specs
		for i, spec := range again {
			if spec.Group != specs[i].Group || spec.Content != specs[i].Content || spec.Stream <= specs[1].Stream {
				t.Fatalf("the second start names %+v, want group %d's %s as a stream after %d", spec, specs[i].Group, specs[i].Content, specs[1].Stream)
			}
		}
		migratedAfter(t, r, cl, "m2", again[0].Stream, again[1].Stream)
	})
	// m3 refuses the group and is sent a StopStream for its first stream;
	// the group is placed on m2. A stream-ended m3 sends then (say, for a
	// start whose reply timed out) names a stream that no longer stands,
	// and one it sends for a stream on m2 is not its to send: both are
	// ignored, and the group migrates to m2 with both members standing.
	t.Run("re-dispatch, stream-ended crosses a StopStream", func(t *testing.T) {
		r, _, cl := seminarRedispatched(t, "m3")
		specs := cl.req.(wire.StartStream).Specs
		if n := notesOf(r.started(cl, errors.New("refused")), wire.TypeStopStream); len(n) != 1 || n[0].to != 2 {
			t.Fatalf("the refusal stopped %+v, want the group's first stream on m3", n)
		}
		cl = startFor(r.msu(5, "m2", 20*units.Mbps, 900, clip, talk), 0)
		if cl == nil || cl.to != 5 {
			t.Fatal("m2's hello started nothing on it")
		}
		again := cl.req.(wire.StartStream).Specs
		r.in(func() {
			r.c.streamEnded(2, wire.StreamEnded{Stream: specs[0].Stream, Cause: "quit"})
			r.c.streamEnded(2, wire.StreamEnded{Stream: again[0].Stream, Cause: "quit"})
		})
		migratedAfter(t, r, cl, "m2", again[0].Stream, again[1].Stream)
	})
	// A seminar's re-dispatch to m2 times out although m2 began it, and the
	// next release places the group on m2 again. m2's stream-ended for the
	// timed-out start, sent once the StopStream tore it down, arrives before
	// or after the new start's reply: it names streams that no longer stand,
	// so the new start's both stand on m2 and m2's ledgers hold their grants.
	for _, when := range []string{"before", "after"} {
		late := when == "after"
		t.Run("re-dispatch timed out, placed again, stale stream-ended "+when+" the reply", func(t *testing.T) {
			r, m2, cl := seminarRedispatched(t, "m2")
			stale := cl.req.(wire.StartStream).Specs
			r.started(cl, errors.New("call timed out"))
			cl = startFor(r.msu(5, "m3", 1500*units.Kbps, 900), 0)
			if cl == nil || cl.to != 2 {
				t.Fatalf("m3's hello ordered %+v, want the group started on m2 again", cl)
			}
			again := cl.req.(wire.StartStream).Specs
			ended := func() {
				r.in(func() {
					for _, spec := range stale {
						r.c.streamEnded(2, wire.StreamEnded{Stream: spec.Stream, Cause: "coordinator stop"})
					}
				})
			}
			if !late {
				ended()
			}
			migratedAfter(t, r, cl, "m2", again[0].Stream, again[1].Stream)
			if late {
				ended()
			}
			for _, spec := range again {
				if a := r.c.active[spec.Stream]; a == nil || a.msu != "m2" {
					t.Fatalf("stream %d stands as %+v, want on m2", spec.Stream, a)
				}
			}
			checkConservation(t, r.c, msuLedgers(m2), "after the stale stream-ended")
			if want := int64(again[0].Rate + again[1].Rate); m2.net.Reserved() != want {
				t.Fatalf("m2's NIC ledger holds %d, want %d for the group's two streams", m2.net.Reserved(), want)
			}
		})
	}
}

// A recording's commit names each content entry it adds on the
// timeline: a component as it lands, and a composite's parent with its
// last component.
func TestCoreRecordCommitEvents(t *testing.T) {
	r := newCoreRig(t, Config{})
	r.msu(1, "m1", 20*units.Mbps, 900)
	r.client(3)
	tk := r.ticket()
	fx := r.in(func() {
		r.c.record(r.now, tk, 3, wire.Record{Content: "talk", Type: "seminar", Port: "sem", Estimate: time.Minute, ControlAddr: "a:9"})
	})
	for cl := startFor(fx, tk); cl != nil; cl = startFor(fx, tk) {
		fx = r.started(cl, nil)
	}
	a, ok := answerFor(fx, tk)
	if !ok || a.err != nil {
		t.Fatalf("record answered %v, %+v", ok, a)
	}
	streams := a.v.(*wire.RecordOK).Streams
	if len(streams) != 2 {
		t.Fatalf("a seminar recording started %d streams, want 2", len(streams))
	}
	// commit feeds stream i's recording-done and returns the
	// record-commit events it appended.
	commit := func(i int) []obs.Event {
		t.Helper()
		_, since := r.c.Events(0, 0, 0)
		s := streams[i]
		var err error
		r.in(func() {
			err = r.c.recordingDone(1, wire.RecordingDone{Stream: s.Stream, Content: s.Content, Type: s.Type, Disk: 0,
				Length: time.Duration(i+2) * time.Second, Size: units.ByteSize(i+1) * 100 * units.KB})
		})
		if err != nil {
			t.Fatalf("recording-done of %s: %v", s.Content, err)
		}
		evs, _ := r.c.Events(since, 0, 0)
		var out []obs.Event
		for _, ev := range evs {
			if ev.Kind == obs.EvRecCommit {
				out = append(out, ev)
			}
		}
		return out
	}
	want := func(ev obs.Event, content, detail string) {
		t.Helper()
		if ev.Content != content || ev.MSU != "m1" || ev.Disk != 0 || ev.Detail != detail {
			t.Errorf("record-commit event %+v, want %s on m1 disk 0 with %q", ev, content, detail)
		}
	}
	evs := commit(0)
	if len(evs) != 1 {
		t.Fatalf("the first component's commit appended %d record-commit events, want 1: %+v", len(evs), evs)
	}
	want(evs[0], streams[0].Content, fmt.Sprintf("size %v, length 2s", 100*units.KB))
	evs = commit(1)
	if len(evs) != 2 {
		t.Fatalf("the last component's commit appended %d record-commit events, want 2 (it and the parent): %+v", len(evs), evs)
	}
	want(evs[0], streams[1].Content, fmt.Sprintf("size %v, length 3s", 200*units.KB))
	want(evs[1], "talk", fmt.Sprintf("size %v, length 3s", 300*units.KB))
}

// BenchmarkRelease is one release while plays wait on one title on a
// full disk, whose one slot a running play holds: a stream-ended of that
// play, which admits the first waiting one (its start is answered and a
// play queued behind the rest outside the timer, so as many wait at the
// next op), or a cache report from the disk, which admits none. Every
// waiting play is tried again either way.
func BenchmarkRelease(b *testing.B) {
	for _, waiting := range []int{10, 100, 4000} {
		for _, op := range []string{"ended", "report"} {
			b.Run(fmt.Sprintf("waiting=%d/%s", waiting, op), func(b *testing.B) {
				r := newCoreRig(b, Config{QueueTimeout: time.Hour})
				r.msu(1, "m1", 1500*units.Kbps, 900, movie) // one mpeg1 slot
				r.client(2)
				running := r.admit(2, "movie", "tv").Streams[0].Stream
				for i := 0; i < waiting; i++ {
					r.play(2, "movie", "tv", true)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if op == "report" {
						r.report(1)
						continue
					}
					fx := r.in(func() { endStream(r.c, running, "eof") })
					b.StopTimer()
					if len(fx.calls) != 1 || fx.calls[0].typ != wire.TypeStartStream {
						b.Fatalf("a stream-ended with %d waiting decided %+v, want one start", waiting, fx)
					}
					running = fx.calls[0].req.(wire.StartStream).Specs[0].Stream
					r.started(&fx.calls[0], nil)
					r.play(2, "movie", "tv", true)
					b.StartTimer()
				}
				if len(r.c.queue) != waiting {
					b.Fatalf("%d plays waiting at the end, want %d", len(r.c.queue), waiting)
				}
			})
		}
	}
}
