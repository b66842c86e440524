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
// rule. On an MSU built by New, seven viewers of seven cold 1.5 Mbit/s
// titles — a 64 KB page plays for ~350 ms, more than the scheduler's
// deadline band — start against a held device. Their seven first pages
// queue behind the one on the device, more than a transfer carries, so
// the disk is contended from the first pick to the last of this test:
// each player, once its first page is in, stages its whole ring at once
// instead of walking up the ramp, and that backlog must reach the device
// in fewer transfers than pages, every device call issued by a scheduler
// (a first page, read head first, is one transfer in two calls), and
// leave nothing pinned or lent. On a 2-wide stripe pages i and i+2 of a
// title are neighbours on one member, so each member carries its own runs
// while both stay busy.
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

	for _, g := range gates {
		g.hold()
	}
	peers := make([]*wire.Peer, viewers)
	for i := range peers {
		peers[i] = r.play(fmt.Sprint("title-", i))
	}
	submitted(viewers) // budget 1: the first page, alone, contended or not
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
		submitted(int64(viewers + k*readAheadPages))
	}
	total := int64(viewers * (1 + readAheadPages))
	// TestStripedReadOverlap's claim, at rest: every spindle is busy.
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
	// Every title's ring was queued behind the held device, contiguous on
	// its member — a run of four, or two on each of two — and runs ride
	// while more than a transfer's worth is waiting: at least one rider a
	// title.
	if transfers >= pages || io.Coalesced < viewers {
		t.Errorf("%d pages in %d transfers, %d coalesced: contiguous read-ahead queued behind a held disk must ride", pages, transfers, io.Coalesced)
	}
	if n, lent := r.m.obs.pinned.Load(), r.m.obs.lent.Load(); n != 0 || lent != 0 {
		t.Errorf("readahead_pinned_pages = %d, readahead_lent_pages = %d at idle, want 0", n, lent)
	}
}
