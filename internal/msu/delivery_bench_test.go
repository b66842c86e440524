package msu

// Benchmarks and pins for the disk→queue→socket delivery path (§2.3) as
// viewers get it: an MSU built by New, pages through the prefetch ring
// and the volume's scheduler, instrumentation on (measure.go's rig).
// Steady state must show 0 allocs per delivered packet. The
// copy-per-packet player this was once run beside is gone; CHANGES.md
// PR 3 and DESIGN.md §4 keep its numbers.

import (
	"math"
	"testing"

	"calliope/internal/units"
)

// hotCacheBytes holds the whole deliveryPackets title with room to spare.
const hotCacheBytes = 40 * units.MB

// benchDelivery repeats whole sessions until b.N packets have been
// delivered. One op is one delivered packet.
func benchDelivery(b *testing.B, cache units.ByteSize) {
	s, closeBench, err := newDeliveryBench(cache)
	if err != nil {
		b.Fatal(err)
	}
	defer closeBench()
	streams := []*stream{s}
	readsBase := s.m.ioStats(0).Reads
	b.ReportAllocs()
	b.SetBytes(4096)
	b.ResetTimer()
	delivered := 0
	for delivered < b.N {
		runSession(b, streams)
		delivered += deliveryPackets
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(s.m.ioStats(0).Reads-readsBase)/float64(delivered), "diskreads/pkt")
}

// BenchmarkPlayerDeliveryPath measures the zero-copy player end to end
// with caching off: every page is a scheduler read into a refcounted
// pool page, cut into descriptors, written to UDP straight from the
// page.
func BenchmarkPlayerDeliveryPath(b *testing.B) { benchDelivery(b, -1) }

// BenchmarkPlayerHotReplay measures the cache-hit delivery path end to
// end: every page comes from RAM and nothing touches the disk, payloads
// alias cached page memory to the UDP write (DESIGN.md §3e).
func BenchmarkPlayerHotReplay(b *testing.B) { benchDelivery(b, hotCacheBytes) }

// TestDeliveryAllocationPins holds ROADMAP item 2's acceptance line: on
// the path viewers get, cold through the scheduler and warm out of the
// cache, allocations per delivered packet round to 0. What is left is
// per session and per scheduler round, never per packet.
func TestDeliveryAllocationPins(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache units.ByteSize
	}{
		{"scheduler path", -1},
		{"hot replay", hotCacheBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, closeBench, err := newDeliveryBench(tc.cache)
			if err != nil {
				t.Fatal(err)
			}
			defer closeBench()
			res, err := measureDelivery(tc.name, s, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.3f allocs per packet, %.0f pkts/s", res.AllocsPerOp, res.PktsPerSec)
			if math.Round(res.AllocsPerOp) > 0 {
				t.Errorf("%.3f allocations per delivered packet, want 0", res.AllocsPerOp)
			}
		})
	}
}
