package calliope

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/trace"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// TestCLIEndToEnd builds the real binaries and drives the full
// workflow the README documents: mkcontent formats a disk image and
// loads a movie, ffilter produces the fast-scan companions, the
// coordinator and msu processes come up, and calliope-client lists,
// checks status, and plays with VCR commands over stdin.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin,
		"./cmd/coordinator", "./cmd/msu", "./cmd/calliope-client",
		"./cmd/mkcontent", "./cmd/ffilter")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	work := t.TempDir()
	disk := filepath.Join(work, "disk0.img")

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// Content: a 3-second movie plus fast companions (mkcontent -fast).
	out := run("mkcontent", "-disk", disk, "-format", "-disk-size", "33554432",
		"-name", "movie", "-kind", "mpeg1", "-duration", "3s", "-fast")
	if !strings.Contains(out, `loaded "movie"`) {
		t.Fatalf("mkcontent output:\n%s", out)
	}
	// Re-filter with a different interval via ffilter (overwrites are
	// rejected, so filter a second item).
	run("mkcontent", "-disk", disk, "-disk-size", "33554432",
		"-name", "short", "-kind", "mpeg1", "-duration", "1s")
	out = run("ffilter", "-disk", disk, "-disk-size", "33554432", "-name", "short", "-every", "10")
	if !strings.Contains(out, "companions short.ff and short.fb loaded") {
		t.Fatalf("ffilter output:\n%s", out)
	}
	out = run("mkcontent", "-disk", disk, "-disk-size", "33554432", "-list")
	for _, want := range []string{"movie", "movie.ff", "movie.fb", "short", "short.ff"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list missing %q:\n%s", want, out)
		}
	}

	// Servers.
	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	coord := exec.Command(filepath.Join(bin, "coordinator"), "-addr", addr, "-quiet")
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { coord.Process.Kill(); coord.Wait() }() //nolint:errcheck
	waitTCP(t, addr)

	msuProc := exec.Command(filepath.Join(bin, "msu"),
		"-id", "msu0", "-coordinator", addr, "-disk", disk,
		"-disk-size", "33554432", "-quiet")
	var msuOut bytes.Buffer
	msuProc.Stdout, msuProc.Stderr = &msuOut, &msuOut
	if err := msuProc.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { msuProc.Process.Kill(); msuProc.Wait() }() //nolint:errcheck

	// Client: wait until the MSU has registered.
	deadline := time.Now().Add(10 * time.Second)
	for {
		out = run("calliope-client", "-coordinator", addr, "status")
		if strings.Contains(out, "MSUs: 1 (1 available)") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("MSU never registered: %s\nmsu output: %s", out, msuOut.String())
		}
		time.Sleep(100 * time.Millisecond)
	}

	out = run("calliope-client", "-coordinator", addr, "list")
	if !strings.Contains(out, "movie") || !strings.Contains(out, "mpeg1") {
		t.Fatalf("client list:\n%s", out)
	}
	if strings.Contains(out, "movie.ff") {
		t.Fatalf("fast companions leaked into the table of contents:\n%s", out)
	}
	out = run("calliope-client", "-coordinator", addr, "types")
	if !strings.Contains(out, "seminar") || !strings.Contains(out, "rtp-video+vat-audio") {
		t.Fatalf("client types:\n%s", out)
	}

	// Play with VCR commands on stdin: let it run briefly, pause, ff,
	// quit. The client prints a final packet count.
	play := exec.Command(filepath.Join(bin, "calliope-client"), "-coordinator", addr, "play", "short")
	stdin, err := play.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var playOut bytes.Buffer
	play.Stdout, play.Stderr = &playOut, &playOut
	if err := play.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(500 * time.Millisecond)
		fmt.Fprintln(stdin, "pause")
		time.Sleep(100 * time.Millisecond)
		fmt.Fprintln(stdin, "play")
		time.Sleep(200 * time.Millisecond)
		fmt.Fprintln(stdin, "ff")
		time.Sleep(200 * time.Millisecond)
		fmt.Fprintln(stdin, "quit")
	}()
	done := make(chan error, 1)
	go func() { done <- play.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("play exited badly: %v\n%s", err, playOut.String())
		}
	case <-time.After(20 * time.Second):
		play.Process.Kill() //nolint:errcheck
		t.Fatalf("play wedged:\n%s", playOut.String())
	}
	if !strings.Contains(playOut.String(), "stopped:") {
		t.Fatalf("play output:\n%s", playOut.String())
	}

	// Delete through the CLI.
	out = run("calliope-client", "-coordinator", addr, "delete", "short")
	if !strings.Contains(out, `deleted "short"`) {
		t.Fatalf("delete output:\n%s", out)
	}
	out = run("calliope-client", "-coordinator", addr, "list")
	if strings.Contains(out, "short") {
		t.Fatalf("short survived deletion:\n%s", out)
	}
}

// TestCLIStatusV2Golden pins `calliope-client status` byte for byte. The
// expected text was printed by the Status v1 renderer (the commit before
// v1 was deleted) from the same report, so the lines an operator reads
// did not move when the command switched to StatusV2.
func TestCLIStatusV2Golden(t *testing.T) {
	st := wire.StatusV2{
		Version: wire.ProtoVersion,
		Snapshot: obs.Snapshot{
			Gauges: map[string]int64{
				"msus": 2, "msus_available": 1, "active_streams": 3, "queued_plays": 1,
				"contents": 5, "sessions": 4, "lost_recordings": 0, "repl_active": 1,
			},
			Counters: map[string]int64{
				"requests_total": 1234, "repl_planned_total": 4, "repl_completed_total": 2,
				"repl_aborted_total": 1, "repl_dropped_total": 1, "repl_bytes_copied_total": 150 << 20,
			},
		},
		Net: []wire.NetUsage{
			{MSU: "msu0", Alive: true, Used: 4500 * units.Kbps, Cap: 48 * units.Mbps},
			{MSU: "msu1", Alive: false, Used: 0, Cap: 24 * units.Mbps},
		},
		Disks: []wire.DiskUsage{
			{
				Disk: core.DiskID{MSU: "msu0", N: 0}, Alive: true,
				BandwidthUsed: 3000 * units.Kbps, BandwidthCap: 24 * units.Mbps,
				SpaceUsed: 700 * units.MB, SpaceCap: 2 * units.GB,
				Cache: trace.CacheStats{Hits: 900, Misses: 100, Inserts: 100, Evictions: 36},
				IO: trace.IOSchedStats{Requests: 100, Rounds: 40, Reads: 90, Coalesced: 10,
					SeekBytes: 512 << 20, QueuePeak: 7, Late: 2, MaxLateMs: 14},
				Cached: []wire.ContentCoverage{
					{Name: "movie", CachedPages: 36, TotalPages: 40, Players: 2},
					{Name: "news \"at ten\"", CachedPages: 1, TotalPages: 12, Players: 0},
				},
			},
			{
				Disk: core.DiskID{MSU: "msu0", N: 1}, Alive: true,
				BandwidthCap: 24 * units.Mbps, SpaceCap: 2 * units.GB,
				Cache: trace.CacheStats{Evictions: 3},
			},
			{
				Disk: core.DiskID{MSU: "msu1", N: 0}, Alive: false,
				BandwidthCap: 24 * units.Mbps, SpaceUsed: 1536 * units.MB, SpaceCap: 2 * units.GB,
			},
		},
	}
	const want = `MSUs: 2 (1 available)  streams: 3  contents: 5  sessions: 4  requests: 1234
  repl active 1 planned 4 completed 2 aborted 1 dropped 1 copied 150MB
  msu0           up    net 4.50Mbit/s of 48.00Mbit/s
  msu1           DOWN  net 0bit/s of 24.00Mbit/s
  msu0/disk0     up    bandwidth 3.00Mbit/s of 24.00Mbit/s   space 700.00MB of 2.00GB
                       cache hits 900 misses 100 (90.0% hit) inserts 100 evictions 36
                       io reqs 100 rounds 40 (2.5/round) reads 90 coalesced 10 seek 512MB peak 7 late 2 (max 14ms)
                       cached "movie" 36/40 pages, 2 players
                       cached "news \"at ten\"" 1/12 pages, 0 players
  msu0/disk1     up    bandwidth 0bit/s of 24.00Mbit/s   space 0B of 2.00GB
                       cache hits 0 misses 0 (0.0% hit) inserts 0 evictions 3
  msu1/disk0     DOWN  bandwidth 0bit/s of 24.00Mbit/s   space 1.50GB of 2.00GB
`
	if got := st.Text(); got != want {
		t.Fatalf("status text:\n%s\nwant:\n%s", got, want)
	}
	// A cluster that has replicated nothing prints no repl line.
	const idle = "MSUs: 0 (0 available)  streams: 0  contents: 0  sessions: 0  requests: 0\n"
	if got := (wire.StatusV2{}).Text(); got != idle {
		t.Fatalf("idle status text %q, want %q", got, idle)
	}
}

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
