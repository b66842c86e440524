package msu

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/core"
	"calliope/internal/media"
	"calliope/internal/wire"
)

// memberState is what a VCR command moves in one stream: the cue it plays
// (its number, the file read, the speed) and its position.
type memberState struct {
	cue   uint64
	cname string
	speed core.Speed
	pos   time.Duration
}

// states reads the cue of the group whose first stream is first, and its
// members' states, through the core, which orders the reads after the
// command that set them.
func (r *vcrRig) states(first core.StreamID) (cue uint64, members []memberState) {
	r.m.inspect(func(e *engine) {
		g := e.groups[first]
		cue = g.cue
		for _, s := range g.members {
			members = append(members, memberState{s.cue.n, s.cue.cname, s.cue.speed, s.position()})
		}
	})
	return cue, members
}

// TestGroupVCRMovesAllOrNone: a group's VCR command moves every member or
// none. Fast-forward on a composite group whose first member has a
// companion and whose second has none is refused, and leaves both members
// where the pause before it put them: the same cue, speed and position.
func TestGroupVCRMovesAllOrNone(t *testing.T) {
	r := newVCRRig(t)
	ingestMovie(t, r.m.stores[0], "movie", 20*time.Second, 30)
	if err := Ingest(r.m.stores[0], "plain", "mpeg1", testStream(t, 20*time.Second)); err != nil {
		t.Fatal(err)
	}
	first := core.StreamID(r.next + 1)
	p := r.playGroup("movie", "plain")
	r.frame(0)
	r.vcr(p, wire.VCRPause, 0)
	cue, before := r.states(first)
	err := p.Call(wire.TypeVCR, wire.VCR{Op: wire.VCRFastForward}, &wire.VCRAck{})
	if !errors.Is(err, wire.ErrRemote) || !strings.Contains(err.Error(), core.ErrNoFastFile.Error()) {
		t.Fatalf("fast-forward with a member that has no companion: %v, want %v", err, core.ErrNoFastFile)
	}
	if cueAfter, after := r.states(first); cueAfter != cue || !slices.Equal(after, before) {
		t.Errorf("a refused fast-forward moved the group: cue %d, members %+v; before it cue %d, members %+v",
			cueAfter, after, cue, before)
	}
	r.quit(p)
}

// TestVCRAckPositions plays a title while seeks, pauses, plays and
// fast-forwards come in, and checks that each ack's position is where the
// command put the stream. A seek puts it at its target, at the speed it
// plays; a resume or a scan at the position the pause before it held; on
// the fast-forward companion, at the companion's frame there, in
// normal-rate time. By the ack the stream may have played on from there,
// for no longer than the call took, at its rate. After each of those
// commands the stream plays on, and a pause holds where it played to. Run
// it under -race: the sender stores the position as packets leave while
// the acks load it.
func TestVCRAckPositions(t *testing.T) {
	r := newVCRRig(t)
	ingestMovie(t, r.m.stores[0], "movie", 20*time.Second, 30)
	every := media.DefaultFilterEvery
	p := r.play("movie")
	s := r.m.streamByID(core.StreamID(r.next))
	r.frame(0)

	// Where the last command but a pause put the stream, at which speed,
	// and when it was sent.
	var (
		at    time.Duration
		speed core.Speed
		sent  time.Time
	)
	// call sends op and checks that its ack reads the speed and a position
	// from lo up to where the stream can have played since at.
	call := func(op string, pos, lo time.Duration) wire.VCRAck {
		t.Helper()
		var ack wire.VCRAck
		if err := p.Call(wire.TypeVCR, wire.VCR{Op: op, Pos: pos}, &ack); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		rate := time.Duration(1)
		if speed == core.FastForward {
			rate = time.Duration(every)
		}
		if hi := at + rate*time.Since(sent); ack.Speed != speed.String() || ack.Pos < lo || ack.Pos > hi {
			t.Errorf("%s %v: ack at %v, %s; want %s in [%v, %v]", op, pos, ack.Pos, ack.Speed, speed, lo, hi)
		}
		return ack
	}
	// play sends op, which puts the stream at from at speed sp, and waits
	// for the stream to play on from there.
	play := func(op string, pos time.Duration, sp core.Speed, from time.Duration) {
		t.Helper()
		at, speed, sent = from, sp, time.Now()
		if sp == core.FastForward {
			at = media.MapPosition(media.MapPosition(from, every, true), every, false)
		}
		call(op, pos, at)
		await.Until(t, op+" to play on", func() bool { return s.position() > at })
	}
	// pause pauses the stream where it has played to and returns that.
	pause := func() time.Duration {
		t.Helper()
		return call(wire.VCRPause, 0, s.position()).Pos
	}
	for i := range 10 {
		seek := time.Duration(i) * 1300 * time.Millisecond % (15 * time.Second)
		play(wire.VCRSeek, seek, core.Normal, seek)
		play(wire.VCRFastForward, 0, core.FastForward, pause())
		seek = 15*time.Second - seek
		play(wire.VCRSeek, seek, core.FastForward, seek)
		play(wire.VCRPlay, 0, core.Normal, pause())
	}
	r.quit(p)
}
