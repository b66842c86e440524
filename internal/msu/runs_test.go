package msu

import (
	"fmt"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/blockdev"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// TestBackloggedDiskReadsRuns is the live half of the scheduler's run
// rule. On an MSU built by New, seven viewers of seven cold 1.5 Mbit/s
// titles — a 64 KB page plays for ~350 ms, more than the scheduler's
// deadline band — start against a held device. Their seven first pages
// queue behind the one on the device, more than a transfer carries, so
// the disk is contended from the first pick to the last of this test:
// each player, once its first page is in, stages its whole ring at once
// instead of walking up the ramp, and that backlog must reach the device
// as runs, every device call a transfer its scheduler issued (a first
// page, read head first, is two: the head and the rest), and leave
// nothing pinned or lent. On a 2-wide stripe pages i and i+2 of a title
// are neighbours on one member, so each member carries its own runs while
// both stay busy.
func TestBackloggedDiskReadsRuns(t *testing.T) {
	t.Run("volume", func(t *testing.T) { testBacklogRuns(t, 1) })
	t.Run("striped", func(t *testing.T) { testBacklogRuns(t, 2) })
}

func testBacklogRuns(t *testing.T, width int) {
	const blockSize, viewers = 64 * 1024, 7
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

	// submitted waits until the viewers have submitted n reads in all.
	submitted := func(n int64) {
		t.Helper()
		await.Until(t, fmt.Sprintf("%d reads to be submitted", n), func() bool { return r.m.ioStats(0).Requests == n })
	}

	for _, g := range gates {
		g.hold()
	}
	peers := make([]*wire.Peer, viewers)
	for i := range peers {
		peers[i] = r.play(fmt.Sprint("title-", i))
	}
	firsts := int64(viewers * startHeadFirst)
	submitted(firsts) // budget 1: the first page, alone, contended or not
	if !r.m.contended(0) {
		t.Fatalf("%d first pages queued on a held disk, and it does not read as contended", viewers)
	}
	// Let the first pages off member 0 one at a time, head and rest: they
	// are the most urgent band, so nothing else is picked before them.
	// Each player then finds the disk contended — the first pages still
	// queued, and the rings of those before it — and stages a full ring
	// behind its first page, where on an idle disk it would stage one.
	for k := 1; k <= viewers; k++ {
		gates[0].gate <- struct{}{}
		gates[0].gate <- struct{}{}
		submitted(firsts + int64(k*readAheadPages))
	}
	total := int64(viewers * (1 + readAheadPages))
	// TestStripedReadOverlap's claim, at rest: every spindle is busy.
	await.Until(t, "a read parked on each member", func() bool {
		for _, g := range gates {
			if g.waiting() == 0 {
				return false
			}
		}
		return true
	})
	for _, g := range gates {
		g.open()
	}
	await.Until(t, "the backlog to be served", func() bool {
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
	var calls, pages int64
	for i, l := range logs {
		calls += l.total()
		pages += l.blocksRead()
		if st := r.m.scheds[vols[i]].Stats(); width > 1 && st.Coalesced == 0 {
			t.Errorf("member %d served %d requests in as many transfers: it carried no run of its own", i, st.Requests)
		}
	}
	if calls != io.Reads {
		t.Errorf("%d device calls, %d transfers issued by their schedulers: want one call a transfer", calls, io.Reads)
	}
	// A read covers a page from its first byte unless it is the rest of a
	// first page, read head first.
	if pages != io.Requests-viewers {
		t.Errorf("the devices read %d pages for %d reads: want one for each read but the rest of each of the %d first pages", pages, io.Requests, viewers)
	}
	// Every title's ring was queued behind the held device, contiguous on
	// its member — a run of four, or two on each of two — and runs ride
	// while more than a transfer's worth is waiting: at least one rider a
	// title.
	if io.Coalesced < viewers {
		t.Errorf("%d reads in %d transfers, %d coalesced: contiguous read-ahead queued behind a held disk must ride", io.Requests, io.Reads, io.Coalesced)
	}
	if n, lent := r.m.obs.pinned.Load(), r.m.obs.lent.Load(); n != 0 || lent != 0 {
		t.Errorf("readahead_pinned_pages = %d, readahead_lent_pages = %d at idle, want 0", n, lent)
	}
}
