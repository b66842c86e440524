// Video-on-demand: the paper's motivating application. Two MSUs with
// two disks each serve a small catalogue; a crowd of viewers arrives,
// the Coordinator admits streams disk-by-disk until bandwidth runs
// out, queues the overflow, and admits it as earlier viewers finish —
// §2.2's scheduling behaviour end to end.
package main

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"calliope"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

const movieLen = 3 * time.Second

func main() {
	titles := []string{"casablanca", "metropolis", "nosferatu", "sunrise"}
	movie, err := media.GenerateCBR(media.CBRConfig{
		Rate: 1500 * units.Kbps, PacketSize: 4096, FPS: 30, GOP: 15, Duration: movieLen,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two MSUs × two disks; one title per disk. Each disk advertises
	// 4.5 Mbit/s — three 1.5 Mbit/s streams — so the cluster admits
	// twelve concurrent viewers.
	cluster, err := calliope.StartCluster(calliope.ClusterConfig{
		MSUs:          2,
		DisksPerMSU:   2,
		DiskBandwidth: 4500 * units.Kbps,
		QueueTimeout:  time.Minute,
		Preload: func(m, d int, vol *msufs.Volume) error {
			return calliope.Ingest(vol, titles[m*2+d], "mpeg1", movie)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	admin, err := calliope.Dial(cluster.Addr(), "admin")
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	items, err := admin.ListContent()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("catalogue:")
	for _, it := range items {
		fmt.Printf("  %-12s on %v\n", it.Name, it.Replicas)
	}

	// Sixteen viewers want the same four titles: four more than the
	// cluster admits at once. Everyone asks with Wait=true, so the
	// overflow queues instead of failing.
	const viewers = 16
	var wg sync.WaitGroup
	var queuedOrLate atomic.Int32
	start := time.Now()
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			c, err := calliope.Dial(cluster.Addr(), fmt.Sprintf("viewer-%d", v))
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
			title := titles[v%len(titles)]
			stream, err := c.Play(title, "tv", true)
			if err != nil {
				log.Fatalf("viewer %d: %v", v, err)
			}
			waited := time.Since(start)
			if waited > movieLen/2 {
				queuedOrLate.Add(1)
			}
			fmt.Printf("viewer %2d: %-12s admitted after %7v on %s\n",
				v, title, waited.Round(time.Millisecond), stream.Info().MSU)
			select {
			case <-stream.EOF():
			case <-time.After(movieLen + 20*time.Second):
				log.Fatalf("viewer %d: stream stalled", v)
			}
			if err := stream.Quit(); err != nil {
				log.Fatalf("viewer %d: quit: %v", v, err)
			}
		}(v)
		time.Sleep(50 * time.Millisecond) // arrivals trickle in
	}
	wg.Wait()
	fmt.Printf("all %d viewers served; %d had to queue for a slot\n", viewers, queuedOrLate.Load())

	st, err := admin.StatusV2()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator handled %d requests; %d streams remain\n",
		st.Snapshot.Counter("requests_total"), st.Snapshot.Gauge("active_streams"))
}
