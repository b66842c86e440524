package msu

// BenchmarkFirstPacket measures what a cold viewer waits for on the MSU:
// from the stream being told to play to its first datagram at the
// receiver, on the 1996 mechanism at its own speed (blockdev.Sim,
// TimeScale 1) with the paper's 256 KB pages and the cache off, so every
// start goes to the disk. idle has the disk to itself; beside-writers
// shares it with page writes made outside the scheduler, the way
// recordings reach the disk today (ROADMAP item 2). One op is one start;
// ms/op is the figure.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

func BenchmarkFirstPacket(b *testing.B) {
	b.Run("idle", func(b *testing.B) { benchFirstPacket(b, 0) })
	// Eight 1.5 Mbit/s recordings fill a 256 KB page every ~170 ms
	// between them.
	b.Run("beside-writers", func(b *testing.B) { benchFirstPacket(b, 170*time.Millisecond) })
}

func benchFirstPacket(b *testing.B, writeEvery time.Duration) {
	const titles = 8
	mem, err := blockdev.NewMem(64 * int64(units.MB))
	if err != nil {
		b.Fatal(err)
	}
	vol, err := msufs.Format(blockdev.NewSim(mem, blockdev.DefaultSimConfig()), msufs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	m := newTestMSU(b, -1, false, vol)
	pkts, err := media.GenerateCBR(media.CBRConfig{Rate: 1500 * units.Kbps, PacketSize: 1024, FPS: 30, GOP: 15, Duration: 4 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close() //nolint:errcheck
	streams := make([]*stream, titles)
	for i := range streams {
		name := fmt.Sprintf("title-%d", i)
		if err := Ingest(m.stores[0], name, "mpeg1", pkts); err != nil {
			b.Fatal(err)
		}
		spec := core.StreamSpec{Stream: core.StreamID(i + 1), Content: name, DestAddr: sink.LocalAddr().String()}
		if streams[i], err = m.newPlayStream(spec, m.stores[0]); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(streams[i].teardown)
	}
	if writeEvery > 0 {
		scratch, err := vol.Create("scratch", 16*int64(vol.BlockSize()), nil)
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := make([]byte, vol.BlockSize())
			tick := time.NewTicker(writeEvery)
			defer tick.Stop()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
					scratch.WriteBlock(i%16, page) //nolint:errcheck // load, not data
				}
			}
		}()
		defer func() {
			close(stop)
			wg.Wait()
		}()
	}
	buf := make([]byte, 2048)
	var waited time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := streams[i%titles]
		sink.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
		start := time.Now()
		if err := s.playAt(core.Normal, 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sink.ReadFromUDP(buf); err != nil {
			b.Fatal(err)
		}
		waited += time.Since(start)
		b.StopTimer()
		s.stopPlayer()
		for err := error(nil); err == nil; { // what was sent before the stop
			sink.SetReadDeadline(time.Now().Add(time.Millisecond)) //nolint:errcheck
			_, _, err = sink.ReadFromUDP(buf)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(waited.Microseconds())/1e3/float64(b.N), "ms/op")
}
