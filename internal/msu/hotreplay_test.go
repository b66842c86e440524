package msu

// Hot-content replay through the RAM interval cache (DESIGN.md §3e):
// once one viewer has pulled a title off disk, N concurrent followers
// must replay it almost entirely from RAM — ≥90% fewer block reads
// than the uncached ablation — on the path viewers get: an MSU built by
// New, every miss a scheduler read. BenchmarkPlayerHotReplay and the
// allocation pin for the same path are in delivery_bench_test.go.

import (
	"testing"

	"calliope/internal/core"
	"calliope/internal/units"
)

// TestHotReplayCacheSavesDiskReads: 8 concurrent players of one warmed
// title must issue at most a tenth of the uncached ablation's block
// reads. Runs under -race in CI.
func TestHotReplayCacheSavesDiskReads(t *testing.T) {
	const (
		title   = "blockbuster"
		npkts   = 512 // ~35 pages of 64 KB; the default cache holds 128
		players = 8
	)
	// run plays the title on every player at once, on a fresh MSU with
	// the given cache, and reports the blocks its device served them.
	run := func(cache units.ByteSize, warm bool) (int64, *MSU) {
		vol, dev := newReadLogVolume(t)
		m := newTestMSU(t, cache, false, vol)
		if err := Ingest(m.stores[0], title, "mpeg1", flatPackets(npkts)); err != nil {
			t.Fatal(err)
		}
		if warm {
			runSession(t, []*stream{openTestStream(t, m, 0, players+1, title)})
		}
		streams := make([]*stream, players)
		for i := range streams {
			streams[i] = openTestStream(t, m, 0, core.StreamID(i+1), title)
		}
		start := dev.blocksRead()
		runSession(t, streams)
		return dev.blocksRead() - start, m
	}

	uncached, _ := run(-1, false)
	cached, m := run(0, true)

	if uncached == 0 {
		t.Fatal("ablation issued no reads; the counter is broken")
	}
	if cached*10 > uncached {
		t.Fatalf("cached replay: %d block reads, uncached: %d — less than 90%% saved", cached, uncached)
	}
	st := m.caches[0].Stats()
	if st.Hits == 0 {
		t.Fatal("no cache hits during replay")
	}
	t.Logf("block reads: %d uncached → %d cached (%.1f%% saved), cache %v",
		uncached, cached, 100*(1-float64(cached)/float64(uncached)), st)
}
