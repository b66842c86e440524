// Hot content, two ways of serving it. A blockbuster sits on a small
// MSU and everyone wants it at once.
//
// Act 1 — layout (§2.3.3, live): with the paper's non-striped layout
// the item lives on one disk, so only that disk's bandwidth serves it;
// with the striped layout (this reproduction implements it — the paper
// left it as a design discussion) the same demand spreads across both
// disks and twice as many viewers get in.
//
// Act 2 — the RAM interval cache (DESIGN.md §3e): after one viewer has
// pulled the title off disk it is resident in the disk's page cache,
// so a wave of concurrent replays is served from RAM. The Coordinator
// knows (cache reports make admission cache-aware), so the NIC budget,
// not the disk duty cycle, becomes the admission limit — and the disk
// is left nearly idle, which this example proves with I/O counters.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"calliope"
	"calliope/internal/blockdev"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/trace"
	"calliope/internal/units"
)

const viewers = 8

func main() {
	movie, err := media.GenerateCBR(media.CBRConfig{
		Rate: 1500 * units.Kbps, PacketSize: 4096, FPS: 30, GOP: 15,
		Duration: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Act 1: each disk budgets 3 Mbit/s — two 1.5 Mbit/s streams.
	admitted := func(striped bool) int {
		cfg := calliope.ClusterConfig{
			DisksPerMSU:   2,
			Striped:       striped,
			DiskBandwidth: 3000 * units.Kbps,
			BlockSize:     64 * 1024,
			CacheBytes:    -1, // this act is about disks; no RAM cache
		}
		if striped {
			cfg.PreloadStriped = func(m int, store msufs.Store) error {
				return calliope.IngestStore(store, "blockbuster", "mpeg1", movie)
			}
		} else {
			cfg.Preload = func(m, d int, vol *msufs.Volume) error {
				if d != 0 {
					return nil // the hot item lives on disk 0 only
				}
				return calliope.Ingest(vol, "blockbuster", "mpeg1", movie)
			}
		}
		cluster, err := calliope.StartCluster(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()

		c, err := calliope.Dial(cluster.Addr(), "crowd")
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		recv, err := calliope.NewReceiver("")
		if err != nil {
			log.Fatal(err)
		}
		defer recv.Close()
		if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
			log.Fatal(err)
		}

		var streams []*calliope.Stream
		for {
			s, err := c.Play("blockbuster", "tv", false)
			if err != nil {
				break // admission control said no
			}
			streams = append(streams, s)
			if len(streams) > 16 {
				log.Fatal("admission control never engaged")
			}
		}
		for _, s := range streams {
			s.Quit() //nolint:errcheck
		}
		return len(streams)
	}

	pinned := admitted(false)
	striped := admitted(true)
	fmt.Printf("two disks, 3 Mbit/s each, one hot item:\n")
	fmt.Printf("  non-striped layout (paper's MSU): %d concurrent viewers — the item's disk is the limit\n", pinned)
	fmt.Printf("  striped layout (§2.3.3, built):   %d concurrent viewers — both disks serve everyone\n", striped)
	if striped <= pinned {
		log.Fatal("striping should raise the admission limit")
	}

	// Act 2: one warm viewer, then a replay wave.
	uncachedReads, _ := hotReplay(movie, false)
	cachedReads, delta := hotReplay(movie, true)
	if uncachedReads == 0 {
		log.Fatal("ablation issued no disk reads; the counter is broken")
	}
	saved := 100 * (1 - float64(cachedReads)/float64(uncachedReads))
	fmt.Printf("\n%d concurrent viewers replaying the same title:\n", viewers)
	fmt.Printf("  no RAM cache (ablation): %d block reads — every viewer re-reads the disk\n", uncachedReads)
	fmt.Printf("  RAM interval cache:      %d block reads (%.1f%% saved), %s\n", cachedReads, saved, delta)
	if cachedReads*2 > uncachedReads {
		log.Fatal("the cache should at least halve replay disk reads")
	}
}

// hotReplay counts the block reads a wave of concurrent viewers issues
// replaying one title. With cached set, a warm viewer first pulls the
// title into the disk's RAM cache and the wave starts only after the
// Coordinator has seen the coverage report — so the wave admits on NIC
// bandwidth alone, past a disk that could serve just two streams.
func hotReplay(movie []calliope.Packet, cached bool) (reads int64, delta trace.CacheStats) {
	var disk *blockdev.Counting
	cfg := calliope.ClusterConfig{
		DiskBandwidth: units.BitRate(viewers) * 3000 * units.Kbps,
		BlockSize:     64 * 1024,
		CacheBytes:    -1,
		WrapDevice: func(m, d int, dev blockdev.BlockDevice) blockdev.BlockDevice {
			disk = blockdev.NewCounting(dev)
			return disk
		},
		Preload: func(m, d int, vol *msufs.Volume) error {
			return calliope.Ingest(vol, "blockbuster", "mpeg1", movie)
		},
	}
	if cached {
		cfg.CacheBytes = 0 // default 8 MB cache
		// The disk alone admits two viewers; the NIC budget carries
		// the cached replay wave.
		cfg.DiskBandwidth = 3000 * units.Kbps
		cfg.NetBandwidth = units.BitRate(2*viewers) * 1500 * units.Kbps
	}
	cluster, err := calliope.StartCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	c, err := calliope.Dial(cluster.Addr(), "crowd")
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	recv, err := calliope.NewReceiver("")
	if err != nil {
		log.Fatal(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		log.Fatal(err)
	}

	if cached {
		s, err := c.Play("blockbuster", "tv", false)
		if err != nil {
			log.Fatal(err)
		}
		<-s.EOF()
		s.Quit() //nolint:errcheck
		waitWarm(c, "blockbuster")
	}
	warm := cacheStats(c)
	disk.Reset()

	var wg sync.WaitGroup
	for i := 0; i < viewers; i++ {
		s, err := c.Play("blockbuster", "tv", false)
		if err != nil {
			log.Fatalf("viewer %d rejected: %v", i+1, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-s.EOF()
			s.Quit() //nolint:errcheck
		}()
	}
	wg.Wait()
	return disk.Stats().Reads, cacheStats(c).Sub(warm)
}

// cacheStats sums the per-disk cache counters out of a status report.
func cacheStats(c *calliope.Client) trace.CacheStats {
	st, err := c.StatusV2()
	if err != nil {
		log.Fatal(err)
	}
	var total trace.CacheStats
	for _, d := range st.Disks {
		total = total.Add(d.Cache)
	}
	return total
}

// waitWarm blocks until the Coordinator's view of the cache coverage
// makes the title warm — the point where plays stop needing disk slots.
func waitWarm(c *calliope.Client, name string) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		st, err := c.StatusV2()
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range st.Disks {
			for _, cov := range d.Cached {
				if cov.Name == name && cov.TotalPages > 0 && cov.CachedPages*10 >= cov.TotalPages*9 {
					return
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	log.Fatalf("cache never reported warm coverage for %q", name)
}
