package msu

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// gaugeDev tracks how many reads are on the wire at once across every
// member device sharing the same counters, holding each read open
// briefly so genuine concurrency registers. It deliberately does not
// implement blockdev.VectorReader: coalesced transfers fall back to
// per-buffer reads and each one is gauged.
type gaugeDev struct {
	blockdev.BlockDevice
	cur, max *atomic.Int64
}

func (d *gaugeDev) ReadAt(p []byte, off int64) error {
	c := d.cur.Add(1)
	for {
		m := d.max.Load()
		if c <= m || d.max.CompareAndSwap(m, c) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	err := d.BlockDevice.ReadAt(p, off)
	d.cur.Add(-1)
	return err
}

// TestStripedReadOverlap verifies the paper's striped-layout payoff
// (§2.3.3) survives the scheduler path: consecutive pages of striped
// content land on adjacent member volumes, each with its own scheduler,
// so one player's prefetch ring — and several players together — keep
// multiple spindles busy at once instead of reading one block at a
// time.
func TestStripedReadOverlap(t *testing.T) {
	const width, players = 3, 3
	var cur, max atomic.Int64
	vols := make([]*msufs.Volume, width)
	counts := make([]*blockdev.Counting, width)
	for i := range vols {
		mem, err := blockdev.NewMem(8 * int64(units.MB))
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = blockdev.NewCounting(&gaugeDev{BlockDevice: mem, cur: &cur, max: &max})
		vols[i], err = msufs.Format(counts[i], msufs.Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
		if err != nil {
			t.Fatal(err)
		}
	}
	m := newTestMSU(t, -1, true, vols...)
	streams := make([]*stream, players)
	for i := range streams {
		name := fmt.Sprintf("wide-%d", i)
		if err := Ingest(m.stores[0], name, "mpeg1", flatPackets(256)); err != nil {
			t.Fatal(err)
		}
		streams[i] = openTestStream(t, m, 0, core.StreamID(i+1), name)
	}

	// Count only delivery I/O: ingest and open already touched the
	// devices.
	max.Store(0)
	for _, c := range counts {
		c.Reset()
	}
	runSession(t, streams)

	if got := max.Load(); got < 2 {
		t.Errorf("peak in-flight reads = %d, want at least 2: striped prefetch never overlapped members", got)
	}
	var reads [width]int64
	for i, c := range counts {
		reads[i] = c.Reads.Load()
		if reads[i] < 2 {
			t.Errorf("member %d served %d reads: striped content should spread across every member", i, reads[i])
		}
	}
	t.Logf("peak in-flight %d, member reads %v", max.Load(), reads)

	// Regression: ioStats must actually accumulate the per-member
	// scheduler counters (Add returns the merged value — dropping it
	// reported every disk as idle and the status `io` line never
	// printed).
	io := m.ioStats(0)
	if io.Requests == 0 || io.Rounds == 0 {
		t.Errorf("ioStats(0) = %+v: scheduler counters not aggregated across members", io)
	}
}
