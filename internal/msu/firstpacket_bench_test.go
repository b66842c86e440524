package msu

// BenchmarkFirstPacket measures what a cold viewer waits for on the MSU:
// from the stream being told to play to its first datagram at the
// receiver, on the 1996 mechanism at its own speed (blockdev.Sim,
// TimeScale 1) with the paper's 256 KB pages. idle and beside-writers run
// with the cache off, so there are no resident heads and every start goes
// to the disk, head first: idle has the disk to itself; beside-writers
// shares it with page writes made outside the scheduler, the way
// recordings reach the disk today (ROADMAP item 2). seek is idle with the
// start moved to mid-title: a play from a packet of page 2 that lies
// wholly inside the page's head, so its first datagram leaves as soon as
// the head is in (its index is resident before timing, so a start reads
// only data). resident is idle with the cache on, so New kept every
// title's head and a start waits for no read (page 0 itself is never
// cached: each start is stopped at its first datagram, long before the
// rest of the page is in). One op is one start; ms/op is the figure.
//
// BenchmarkLoadHeads is what resident costs and where: New over a disk of
// 16 and of 64 titles, one head read each through the scheduler, on the
// same mechanism. One op is one New; ms/title is the figure.

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
	"calliope/internal/wire"
)

func BenchmarkFirstPacket(b *testing.B) {
	b.Run("idle", func(b *testing.B) { benchFirstPacket(b, 0, -1, false) })
	// Eight 1.5 Mbit/s recordings fill a 256 KB page every ~170 ms
	// between them.
	b.Run("beside-writers", func(b *testing.B) { benchFirstPacket(b, 170*time.Millisecond, -1, false) })
	b.Run("seek", func(b *testing.B) { benchFirstPacket(b, 0, -1, true) })
	b.Run("resident", func(b *testing.B) { benchFirstPacket(b, 0, 0, false) })
}

// inHeadStart is where seek starts its plays: the first packet at least
// ten into page 2 that lies wholly inside the page's head and begins a
// delivery time, so a play from there sends it first.
func inHeadStart(b *testing.B, m *MSU, title string) time.Duration {
	b.Helper()
	page, _ := pagePackets(b, m, title, 2)
	for i := 10; i < len(page) && page[i].inHead; i++ {
		if page[i].t > page[i-1].t {
			return page[i].t
		}
	}
	b.Fatalf("no packet ten or more into page 2 of %q begins a delivery time inside the head", title)
	return 0
}

// simVolume is a volume of the 1996 mechanism at its own speed holding n
// titles of dur each, written before the mechanism is put under it.
func simVolume(b *testing.B, n int, dur time.Duration) *msufs.Volume {
	b.Helper()
	mem, err := blockdev.NewMem(64 * int64(units.MB))
	if err != nil {
		b.Fatal(err)
	}
	vol, err := msufs.Format(mem, msufs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pkts, err := media.GenerateCBR(media.CBRConfig{Rate: 1500 * units.Kbps, PacketSize: 1024, FPS: 30, GOP: 15, Duration: dur})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := Ingest(msufs.NewStore(vol), fmt.Sprintf("title-%d", i), "mpeg1", pkts); err != nil {
			b.Fatal(err)
		}
	}
	if vol, err = msufs.Mount(blockdev.NewSim(mem, blockdev.DefaultSimConfig())); err != nil {
		b.Fatal(err)
	}
	return vol
}

func BenchmarkLoadHeads(b *testing.B) {
	for _, titles := range []int{16, 64} {
		b.Run(fmt.Sprintf("titles=%d", titles), func(b *testing.B) {
			vol := simVolume(b, titles, 2*time.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := newBenchMSU(0, false, vol)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if n := m.obs.heads.Load(); n != int64(titles) {
					b.Fatalf("New kept %d heads of %d titles", n, titles)
				}
				m.Close() //nolint:errcheck // Close never fails without a Coordinator link
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N*titles), "ms/title")
		})
	}
}

func benchFirstPacket(b *testing.B, writeEvery time.Duration, cache units.ByteSize, seek bool) {
	const titles = 8
	vol := simVolume(b, titles, 4*time.Second)
	m := newTestMSU(b, cache, false, vol)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close() //nolint:errcheck
	var pos time.Duration
	if seek {
		pos = inHeadStart(b, m, "title-0") // every title holds the same packets
	}
	streams := make([]*stream, titles)
	for i := range streams {
		name := fmt.Sprintf("title-%d", i)
		spec := core.StreamSpec{Stream: core.StreamID(i + 1), Content: name, DestAddr: sink.LocalAddr().String()}
		if streams[i], err = m.newPlayStream(spec, m.stores[0]); err != nil {
			b.Fatal(err)
		}
		s := streams[i]
		b.Cleanup(func() { s.teardown() })
		if _, err := streams[i].tree.PageCursorAt(pos); err != nil {
			b.Fatal(err)
		}
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
		if err := vcr([]*stream{s}, wire.VCRSeek, pos, 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := sink.ReadFromUDP(buf); err != nil {
			b.Fatal(err)
		}
		waited += time.Since(start)
		b.StopTimer()
		vcr([]*stream{s}, wire.VCRPause, 0, 0) //nolint:errcheck // a play stream always pauses
		for err := error(nil); err == nil; {   // what was sent before the stop
			sink.SetReadDeadline(time.Now().Add(time.Millisecond)) //nolint:errcheck
			_, _, err = sink.ReadFromUDP(buf)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(waited.Microseconds())/1e3/float64(b.N), "ms/op")
}
