package msu

// BenchmarkIOSched measures the per-disk I/O scheduler on the live
// delivery path (§2.2.1): 24 concurrent players over one Sim-backed
// volume, reading through scheduler rounds (C-SCAN + coalescing via the
// prefetch ring). The Sim device serializes transfers on one mechanical
// model — seek curve, rotational latency, media rate — scaled down by
// TimeScale. The unscheduled path this once ran beside is gone; its
// numbers are in BENCH_8.json (7.6k vs 23.9k pkts/s). The session
// harness lives in measure.go, shared with cmd/calliope-bench's -json
// output.

import (
	"fmt"
	"testing"

	"calliope/internal/blockdev"
	"calliope/internal/core"
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
// end. Alongside ns/op it reports the Sim's head travel per session —
// the deterministic quantity C-SCAN shrinks.
func BenchmarkIOSched(b *testing.B) {
	vol, err := newSimVolume(64*int64(units.MB), benchSimScale)
	if err != nil {
		b.Fatal(err)
	}
	sim := vol.Device().(*blockdev.Sim)
	m := newTestMSU(b, -1, false, vol)
	pkts := flatPackets(benchPacketsPerTitle)
	streams := make([]*stream, benchReaders)
	for i := range streams {
		name := fmt.Sprintf("title-%02d", i)
		if err := Ingest(m.stores[0], name, "mpeg1", pkts); err != nil {
			b.Fatal(err)
		}
		streams[i] = openTestStream(b, m, 0, core.StreamID(i+1), name)
	}
	seekBase, opsBase := sim.SeekBytes(), sim.Ops()
	b.SetBytes(int64(benchReaders) * benchPacketsPerTitle * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSession(b, streams)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(sim.SeekBytes()-seekBase)/n/1e6, "seekMB/op")
	b.ReportMetric(float64(sim.Ops()-opsBase)/n, "xfers/op")
}
