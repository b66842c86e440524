package msu

import (
	"fmt"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// TestBackloggedDiskReadsRuns is the live half of the scheduler's run
// rule. On an MSU built by New, six viewers of six cold 1.5 Mbit/s
// titles — a 64 KB page plays for ~350 ms, more than the scheduler's
// deadline band — are walked up their ramps against a held device, so
// that each has contiguous read-ahead queued when the device is let go.
// That backlog must reach the device in fewer transfers than pages,
// every device call issued by a scheduler (a first page, read head
// first, is one transfer in two calls), and leave nothing pinned. On
// a 2-wide stripe pages i and i+2 of a title are neighbours on one
// member, so each member carries its own runs while both stay busy.
func TestBackloggedDiskReadsRuns(t *testing.T) {
	t.Run("volume", func(t *testing.T) { testBacklogRuns(t, 1) })
	t.Run("striped", func(t *testing.T) { testBacklogRuns(t, 2) })
}

func testBacklogRuns(t *testing.T, width int) {
	const blockSize, viewers = 64 * 1024, 6
	vols := make([]*msufs.Volume, width)
	logs := make([]*readLog, width)
	gates := make([]*gatedDev, width)
	for i := range vols {
		mem, err := blockdev.NewMem(16 * int64(units.MB))
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = &gatedDev{BlockDevice: mem, blockSize: blockSize}
		logs[i] = &readLog{BlockDevice: gates[i], blockSize: blockSize, at: make(map[int64]int)}
		if vols[i], err = msufs.Format(logs[i], msufs.Options{BlockSize: blockSize}); err != nil {
			t.Fatal(err)
		}
	}
	r := newVCRRigOn(t, Config{Volumes: vols, Striped: width > 1})
	for _, g := range gates {
		t.Cleanup(g.open) // runs before the rig closes its MSU, which waits for reads in flight
	}
	pkts, err := media.GenerateCBR(media.CBRConfig{Rate: 1500 * units.Kbps, PacketSize: 1024, FPS: 30, GOP: 15, Duration: 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < viewers; i++ {
		if err := Ingest(r.m.stores[0], fmt.Sprint("title-", i), "mpeg1", pkts); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range logs {
		if n := l.total(); n != 0 {
			t.Fatalf("member %d served %d reads before anyone played", i, n)
		}
	}

	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (scheduler: %v)", what, r.m.ioStats(0))
			}
		}
	}
	// submitted waits until the viewers have asked for n pages in all.
	submitted := func(n int64) {
		t.Helper()
		await(fmt.Sprintf("%d page reads to be submitted", n), func() bool { return r.m.ioStats(0).Requests == n })
	}
	// pass lets page idx of every viewer off its member: while a member
	// is held its queue serves the most urgent band first, and a title's
	// pages lie more than a band apart, so the next transfers are that
	// page of each title — one transfer each, nothing rides yet. A
	// title's first page is two device calls, its head and the rest.
	pass := func(idx int) {
		calls := viewers
		if idx == 0 {
			calls *= 2
		}
		for i := 0; i < calls; i++ {
			gates[idx%width].gate <- struct{}{}
		}
	}

	for _, g := range gates {
		g.hold()
	}
	peers := make([]*wire.Peer, viewers)
	for i := range peers {
		peers[i] = r.play(fmt.Sprint("title-", i))
	}
	submitted(viewers) // budget 1: the first page, alone
	pass(0)
	submitted(2 * viewers) // budget 2: page 1 behind page 0 going out
	pass(1)
	// Page 0 has gone out in full: budget 3, pages 2 and 3 behind page 1.
	total := int64(4 * viewers)
	submitted(total)
	if width == 2 {
		// Pages 2 and 3 are on different members. Two more steps up the
		// ramp, letting go of one member at a time, queue page 5 beside
		// page 3 on member 1 and then page 6 beside page 4 on member 0.
		sent := func(n int32) {
			t.Helper()
			await(fmt.Sprintf("%d pages of every title to be sent in full", n), func() bool {
				r.m.mu.Lock()
				defer r.m.mu.Unlock()
				for _, s := range r.m.streams {
					s.mu.Lock()
					p := s.player
					s.mu.Unlock()
					if p == nil || p.sent.Load() < n {
						return false
					}
				}
				return true
			})
		}
		sent(2) // budget 4
		pass(2)
		total += 2 * viewers // pages 4 and 5 behind page 2
		submitted(total)
		// TestStripedReadOverlap's claim, at rest: both spindles are busy.
		await("a read parked on each member", func() bool {
			for _, g := range gates {
				g.mu.Lock()
				parked := g.parked
				g.mu.Unlock()
				if parked == 0 {
					return false
				}
			}
			return true
		})
		sent(3) // budget 5
		gates[1].open()
		total += 2 * viewers // pages 6 and 7 behind page 3
		submitted(total)
	}
	for _, g := range gates {
		g.open()
	}
	await("the backlog to be served", func() bool {
		var pages int64
		for _, l := range logs {
			pages += l.blocksRead()
		}
		return pages >= total
	})
	for _, p := range peers {
		r.vcr(p, "quit", 0)
		p.Close() //nolint:errcheck // the MSU closes its end too
	}
	r.drained()

	io := r.m.ioStats(0)
	var calls, transfers, pages int64
	for i, l := range logs {
		calls += l.total()
		transfers += l.transfers()
		pages += l.blocksRead()
		if width > 1 && l.transfers() == l.blocksRead() {
			t.Errorf("member %d served %d pages in as many transfers: it carried no run of its own", i, l.transfers())
		}
	}
	if calls != io.Reads {
		t.Errorf("%d reads reached the devices, their schedulers issued %d", calls, io.Reads)
	}
	if calls != transfers+viewers {
		t.Errorf("%d device calls for %d transfers: want one more for each of the %d first pages, read head first", calls, transfers, viewers)
	}
	if pages != io.Requests {
		t.Errorf("the devices read %d pages, the viewers asked for %d", pages, io.Requests)
	}
	// Whichever read was on the device when a gate shut, eleven or so
	// were queued behind it, five whole runs of two among them, and runs
	// ride while more than a transfer's worth is waiting.
	if transfers >= pages || io.Coalesced < 3 {
		t.Errorf("%d pages in %d transfers, %d coalesced: contiguous read-ahead queued behind a held disk must ride", pages, transfers, io.Coalesced)
	}
	if n := r.m.obs.pinned.Load(); n != 0 {
		t.Errorf("readahead_pinned_pages = %d at idle, want 0", n)
	}
}
