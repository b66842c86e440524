package msu

// This file is the non-test half of the live-path benchmarks: the
// session harness BenchmarkIOSched, BenchmarkPlayerDeliveryPath and
// BenchmarkPlayerHotReplay run in-package — an MSU built by New, its
// streams on the prefetch ring, instrumentation on — is exposed here so
// bench/ measures the same path.

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// BenchResult is one measurement. What one "op" is depends on the
// benchmark: a delivered packet for delivery, a full multi-reader
// session for iosched (PktsPerSec is comparable across both).
type BenchResult struct {
	Name        string
	PktsPerSec  float64
	NsPerOp     float64
	AllocsPerOp float64
}

// flatPackets builds 4 KB packets all at delivery time zero, so streams
// run flat out and a measurement exercises the disk path, not pacing.
func flatPackets(n int) []media.Packet {
	pkts := make([]media.Packet, n)
	payload := make([]byte, 4096)
	for i := range pkts {
		pkts[i] = media.Packet{Time: 0, Payload: payload}
	}
	return pkts
}

// newSimVolume formats a volume over a mechanically-modelled Sim
// device (seek curve, rotational latency, media rate, scaled by
// 1/scale).
func newSimVolume(size int64, scale float64) (*msufs.Volume, error) {
	mem, err := blockdev.NewMem(size)
	if err != nil {
		return nil, err
	}
	cfg := blockdev.DefaultSimConfig()
	cfg.TimeScale = scale
	return msufs.Format(blockdev.NewSim(mem, cfg), msufs.Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
}

// newBenchMSU builds an MSU over the given volumes without connecting
// a Coordinator (New never dials; only Start does). A negative cache
// disables caching, so every page comes off the device and the
// measurement isolates the I/O path.
func newBenchMSU(cache units.ByteSize, striped bool, vols ...*msufs.Volume) (*MSU, error) {
	return New(Config{
		ID:          "bench",
		Coordinator: "127.0.0.1:1",
		Volumes:     vols,
		Striped:     striped,
		CacheBytes:  cache,
	})
}

// openBenchStream opens a play stream the way startStream would, outside
// any group, aimed at a throwaway UDP sink; cleanup closes both sockets.
func openBenchStream(m *MSU, disk int, id core.StreamID, name string) (*stream, func(), error) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	spec := core.StreamSpec{Stream: id, Disk: disk, Content: name, DestAddr: sink.LocalAddr().String()}
	s, err := m.newPlayStream(spec, m.stores[disk])
	if err != nil {
		sink.Close() //nolint:errcheck
		return nil, nil, err
	}
	cleanup := func() {
		s.teardown()
		sink.Close() //nolint:errcheck
	}
	return s, cleanup, nil
}

// playSession plays every stream from the start to EOF concurrently,
// then pauses them.
func playSession(streams []*stream) error {
	for _, s := range streams {
		if err := s.playAt(core.Normal, 0); err != nil {
			return err
		}
	}
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for _, s := range streams {
		select {
		case <-s.ended():
		case <-timeout.C:
			return fmt.Errorf("msu: measurement session never reached EOF")
		}
	}
	for _, s := range streams {
		s.vcr("pause", 0) //nolint:errcheck // a play stream always pauses
	}
	return nil
}

// runSessions plays n sessions of streams and reports how long they took
// and how many allocations they made.
func runSessions(streams []*stream, n int) (time.Duration, float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := playSession(streams); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed, float64(after.Mallocs - before.Mallocs), nil
}

// MeasureIOSched runs BenchmarkIOSched's measurement outside the
// testing framework: scheduler service for 24 concurrent readers over
// one mechanically-modelled volume, the given number of sessions. One
// op is one full session; the result is the single "iosched/sched" row.
func MeasureIOSched(sessions int) ([]BenchResult, error) {
	const readers, packets = 24, 256
	sessions = max(sessions, 1)
	vol, err := newSimVolume(64*int64(units.MB), 100)
	if err != nil {
		return nil, err
	}
	m, err := newBenchMSU(-1, false, vol)
	if err != nil {
		return nil, err
	}
	defer m.Close() //nolint:errcheck // bench teardown
	streams := make([]*stream, readers)
	pkts := flatPackets(packets)
	for i := range streams {
		name := fmt.Sprintf("title-%02d", i)
		if err := Ingest(m.stores[0], name, "mpeg1", pkts); err != nil {
			return nil, err
		}
		s, cleanup, err := openBenchStream(m, 0, core.StreamID(i+1), name)
		if err != nil {
			return nil, err
		}
		defer cleanup() // each tears its stream down before the MSU closes
		streams[i] = s
	}
	elapsed, allocs, err := runSessions(streams, sessions)
	if err != nil {
		return nil, err
	}
	n := float64(sessions)
	return []BenchResult{{
		Name:        "iosched/sched",
		PktsPerSec:  readers * packets * n / elapsed.Seconds(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: allocs / n,
	}}, nil
}

// deliveryPackets is the title one delivery session plays: ~550 pages
// of 64 KB.
const deliveryPackets = 8192

// newDeliveryBench ingests one flat-out title on a memory-backed volume
// of an MSU with the given cache and opens a stream on it — the rig
// under MeasureDelivery, BenchmarkPlayerDeliveryPath,
// BenchmarkPlayerHotReplay and the allocation pins. With a cache the
// title is played once, so every page of a measured session is a hit.
// The returned func takes it all down.
func newDeliveryBench(cache units.ByteSize) (*stream, func(), error) {
	mem, err := blockdev.NewMem(64 * int64(units.MB))
	if err != nil {
		return nil, nil, err
	}
	vol, err := msufs.Format(mem, msufs.Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	if err != nil {
		return nil, nil, err
	}
	m, err := newBenchMSU(cache, false, vol)
	if err != nil {
		return nil, nil, err
	}
	if err := Ingest(m.stores[0], "title", "mpeg1", flatPackets(deliveryPackets)); err != nil {
		m.Close() //nolint:errcheck // bench teardown
		return nil, nil, err
	}
	s, cleanup, err := openBenchStream(m, 0, 1, "title")
	if err != nil {
		m.Close() //nolint:errcheck // bench teardown
		return nil, nil, err
	}
	closeBench := func() {
		cleanup()
		m.Close() //nolint:errcheck // bench teardown
	}
	if cache >= 0 {
		if err := playSession([]*stream{s}); err != nil {
			closeBench()
			return nil, nil, err
		}
	}
	return s, closeBench, nil
}

// measureDelivery times whole sessions of a newDeliveryBench stream.
// One op is one delivered packet; allocations are amortized over the
// whole run, so a steady-state zero-allocation path reports a small
// fraction per packet (per-session set-up).
func measureDelivery(name string, s *stream, sessions int) (BenchResult, error) {
	elapsed, allocs, err := runSessions([]*stream{s}, sessions)
	if err != nil {
		return BenchResult{}, err
	}
	total := float64(deliveryPackets * sessions)
	return BenchResult{
		Name:        name,
		PktsPerSec:  total / elapsed.Seconds(),
		NsPerOp:     float64(elapsed.Nanoseconds()) / total,
		AllocsPerOp: allocs / total,
	}, nil
}

// MeasureDelivery times the zero-copy delivery path end to end — disk
// process, prefetch ring, descriptor queue, UDP writes — on a
// memory-backed volume with caching off, so every page goes through
// the scheduler.
func MeasureDelivery(sessions int) (BenchResult, error) {
	sessions = max(sessions, 1)
	s, closeBench, err := newDeliveryBench(-1)
	if err != nil {
		return BenchResult{}, err
	}
	defer closeBench()
	return measureDelivery("delivery/zero-copy", s, sessions)
}
