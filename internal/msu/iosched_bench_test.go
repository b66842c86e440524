package msu

// BenchmarkIOSched measures the per-disk I/O scheduler on the live
// delivery path (§2.2.1): 24 concurrent players over one Sim-backed
// volume, reading through the scheduler (C-SCAN + coalescing via the
// prefetch ring). The Sim device serializes transfers on one mechanical
// model — seek curve, rotational latency, media rate — scaled down by
// TimeScale. The unscheduled path this once ran beside is gone; its
// numbers are in BENCH_8.json (7.6k vs 23.9k pkts/s). The session
// harness lives in measure.go, shared with bench/'s MSU probe.

import (
	"fmt"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

const (
	// benchReaders is the concurrent player count — the acceptance
	// point the scheduler's gain is specified at.
	benchReaders = 24
	// benchPacketsPerTitle sizes each player's content: 256 packets of
	// 4 KB ≈ 17 64 KB IB-tree pages, enough that every session sweeps
	// the elevator across distinct disk regions many times.
	benchPacketsPerTitle = 256
	// benchSimScale divides the 1996 Barracuda's mechanical delays so a
	// full 24-reader session replays in a fraction of a second. Scaled
	// delays stay well above the OS sleep granularity (~100 µs), so the
	// seek-vs-transfer proportions — and the elevator's win — survive
	// the scaling.
	benchSimScale = 100
	// benchBacklogPackets and benchBacklogInterval are the backlog case's
	// titles: 128 packets of 4 KB, one every 20 ms — ~1.6 Mbit/s, ~9
	// pages of 320 ms, 2.6 s of content.
	benchBacklogPackets  = 128
	benchBacklogInterval = 20 * time.Millisecond
)

// newTestMSU is newBenchMSU with test lifecycle management.
func newTestMSU(tb testing.TB, cache units.ByteSize, striped bool, vols ...*msufs.Volume) *MSU {
	tb.Helper()
	m, err := newBenchMSU(cache, striped, vols...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { m.Close() }) //nolint:errcheck // best-effort teardown
	return m
}

// openTestStream is openBenchStream with test lifecycle management.
func openTestStream(tb testing.TB, m *MSU, disk int, id core.StreamID, name string) *stream {
	tb.Helper()
	s, cleanup, err := openBenchStream(m, disk, id, name)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cleanup) // stops stragglers too, if the test bails mid-session
	return s
}

// runSession plays every stream from the start to EOF concurrently,
// then stops the players.
func runSession(tb testing.TB, streams []*stream) {
	tb.Helper()
	if err := playSession(streams); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkIOSched measures scheduler service at 24 concurrent readers.
// One op is one full session: every reader plays its own title end to
// end. Alongside ns/op and MB/s it reports the Sim's transfers and head
// travel per session — the quantities coalescing and C-SCAN shrink.
//
// sched plays flat out on the disk sped up a hundredfold: every page is
// due at once, one band, and no queue outlives a sweep. backlog is the
// contended disk: the 1996 mechanism at its own speed (~16 ms a 64 KB
// page, ~4 MB/s page by page) under 24 paced readers of ~1.6 Mbit/s —
// ~4.9 MB/s, with a title's pages 320 ms, more than a deadline band,
// apart. The disk falls behind, each reader's ring queues, and what a
// session takes is what the scheduler makes of that queue. Both run with
// the cache off, so their pools own no page and nothing is lent;
// backlog-cached is backlog over the default cache, whose pages the pool
// lends to readers past their reservations. Its cached pages are dropped
// between sessions, so every session reads every page off the disk: what
// it saves over backlog is lending, not hits.
func BenchmarkIOSched(b *testing.B) {
	backlog := func() []media.Packet {
		pkts := flatPackets(benchBacklogPackets)
		for i := range pkts {
			pkts[i].Time = time.Duration(i) * benchBacklogInterval
		}
		return pkts
	}
	b.Run("sched", func(b *testing.B) { benchIOSched(b, benchSimScale, -1, flatPackets(benchPacketsPerTitle)) })
	b.Run("backlog", func(b *testing.B) { benchIOSched(b, 1, -1, backlog()) })
	b.Run("backlog-cached", func(b *testing.B) { benchIOSched(b, 1, DefaultCacheBytes, backlog()) })
}

func benchIOSched(b *testing.B, scale float64, cacheBytes units.ByteSize, pkts []media.Packet) {
	vol, err := newSimVolume(64*int64(units.MB), scale)
	if err != nil {
		b.Fatal(err)
	}
	sim := vol.Device().(*blockdev.Sim)
	m := newTestMSU(b, cacheBytes, false, vol)
	streams := make([]*stream, benchReaders)
	for i := range streams {
		name := fmt.Sprintf("title-%02d", i)
		if err := Ingest(m.stores[0], name, "mpeg1", pkts); err != nil {
			b.Fatal(err)
		}
		streams[i] = openTestStream(b, m, 0, core.StreamID(i+1), name)
	}
	seekBase, opsBase := sim.SeekBytes(), sim.Ops()
	b.SetBytes(int64(benchReaders) * int64(len(pkts)) * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSession(b, streams)
		if c := m.cacheFor(0); c != nil {
			b.StopTimer()
			for _, s := range streams {
				c.Drop(s.spec.Content)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(sim.SeekBytes()-seekBase)/n/1e6, "seekMB/op")
	b.ReportMetric(float64(sim.Ops()-opsBase)/n, "xfers/op")
}
