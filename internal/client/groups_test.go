package client_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"calliope"
	"calliope/internal/faultinject"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// groupCluster starts a one-MSU cluster holding "movie", with a fault
// injector under everything the MSU dials, and a client of it with a
// display port "tv" and a source port "cam".
func groupCluster(t *testing.T) (*calliope.Client, *faultinject.Injector) {
	t.Helper()
	pkts, err := media.GenerateCBR(media.CBRConfig{
		Rate: 1500 * units.Kbps, PacketSize: 1024, FPS: 30, GOP: 15, Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Options{})
	cluster, err := calliope.StartCluster(calliope.ClusterConfig{
		BlockSize: 64 * 1024,
		MSUDial: func(int) func(network, address string) (net.Conn, error) {
			return inj.Dial(nil)
		},
		Preload: func(_, _ int, vol *msufs.Volume) error {
			return calliope.Ingest(vol, "movie", "mpeg1", pkts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	c, err := calliope.Dial(cluster.Addr(), "gina")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	recv, err := calliope.NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	for _, port := range []string{"tv", "cam"} {
		if err := c.RegisterPort(port, "mpeg1", recv.Addr(), ""); err != nil {
			t.Fatal(err)
		}
	}
	return c, inj
}

// TestGroupsForgottenAtEnd: a long-lived client holds a stream group
// only until its end is final. After plays it quit and a recording it
// stopped, each acknowledged by the MSU, it holds none.
func TestGroupsForgottenAtEnd(t *testing.T) {
	c, _ := groupCluster(t)
	const plays = 5
	for range plays {
		s, err := c.Play("movie", "tv", false)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Quit(); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := c.Record("take", "mpeg1", "cam", 10*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Groups(); n != 1 {
		t.Fatalf("client holds %d groups while recording, want 1", n)
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := c.Groups(); n != 0 {
		t.Fatalf("client holds %d groups after %d plays quit and a recording stopped, want 0", n, plays)
	}
}

// TestFaultRecordingLost: a recording cannot migrate, so when its MSU
// crashes the Coordinator tells the client stream-lost with the reason,
// and that ends the group in the client too.
func TestFaultRecordingLost(t *testing.T) {
	c, inj := groupCluster(t)
	rec, err := c.Record("take", "mpeg1", "cam", 10*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	inj.Partition(true) // the MSU's process dies: its redials fail
	inj.CutAll()
	select {
	case l := <-rec.Lost():
		if l.Group != rec.Info().Group || !strings.Contains(l.Reason, "recording MSU") {
			t.Fatalf("stream-lost %+v, want group %d and the recording MSU's failure as the reason", l, rec.Info().Group)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no stream-lost after the recording's MSU crashed")
	}
	if n := c.Groups(); n != 0 {
		t.Fatalf("client holds %d groups after its only one was lost, want 0", n)
	}
}
