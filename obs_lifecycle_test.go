package calliope

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/blockdev"
	"calliope/internal/obs"
	"calliope/internal/wire"
)

// TestObservabilityLifecycle drives a full play → MSU crash → migrate
// → EOF life through a 2-MSU cluster and then scrapes the
// Coordinator's HTTP endpoint: /metrics must expose non-zero admission
// and delivery counters (the latter arrive as MSU deltas piggybacked
// on cache reports), and /events must carry the play's admit, its
// stream's dispatch and, under the stream ID the re-dispatch gave it,
// its migrate and EOF entries, each stream's in order. The disks take 25 ms a
// read, so a start that waits for one and a start out of the cache must
// show in different buckets of delivery_startup_seconds.
func TestObservabilityLifecycle(t *testing.T) {
	cluster, inj := faultClusterOn(t, 2, 2*time.Second, 0, "", func(_, _ int, dev blockdev.BlockDevice) blockdev.BlockDevice {
		return slowReads{dev, 25 * time.Millisecond}
	})
	srv := httptest.NewServer(cluster.Coordinator.HTTPHandler())
	defer srv.Close()
	c, err := Dial(cluster.Addr(), "olive")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A start from the beginning, which leaves from the title's resident
	// head and waits for no read; a seek from there to the far end of the
	// title, whose page is neither cached nor anybody's head, so it waits
	// for the disk; and, on a port of its own, a start out of the cache.
	// Ten packets are more than the head of the first page holds, so by
	// then the page is whole and in the cache, and the read-ahead is pages
	// short of where the seek lands. Each player's stop ships its start to
	// the Coordinator, and all are waited for, because the MSU they ran on
	// is about to crash.
	starts := int64(0)
	for _, port := range []string{"head", "cached"} {
		early, err := NewReceiver("")
		if err != nil {
			t.Fatal(err)
		}
		defer early.Close()
		if err := c.RegisterPort(port, "mpeg1", early.Addr(), ""); err != nil {
			t.Fatal(err)
		}
		s, err := c.Play("movie", port, false)
		if err != nil {
			t.Fatal(err)
		}
		if !early.WaitCount(10, 5*time.Second) {
			t.Fatalf("the %s stream never started", port)
		}
		starts++
		if port == "head" {
			if _, err := s.Seek(1700 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// The old player had stopped before the seek was acknowledged:
			// at most a packet or two of its are still on their way here.
			if !early.WaitCount(early.Count()+5, 5*time.Second) {
				t.Fatal("nothing came after the seek")
			}
			starts++
		}
		if err := s.Quit(); err != nil {
			t.Fatal(err)
		}
		await.Until(t, "the "+port+" stream's starts to reach the Coordinator", func() bool {
			return scrape(t, srv.URL)["delivery_startup_seconds_count"] >= starts
		})
	}

	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	first := stream.Info().Streams[0].Stream
	if !recv.WaitCount(3, 5*time.Second) {
		t.Fatal("stream never started")
	}

	crash(inj[0])
	select {
	case <-stream.Migrated():
	case l := <-stream.Lost():
		t.Fatalf("stream lost (%q) with a live replica available", l.Reason)
	case <-time.After(10 * time.Second):
		t.Fatal("no migration after MSU crash")
	}
	select {
	case <-stream.EOF():
	case <-time.After(15 * time.Second):
		t.Fatal("no EOF after migration")
	}
	stream.Quit() //nolint:errcheck // the group may already be torn down at EOF

	// Delivery counters reach the Coordinator asynchronously (deltas
	// ride the surviving MSU's cache reports, which its report clock
	// sends while the stream plays), and so does the end of the stream
	// (the MSU acknowledges the
	// Quit, then tears down and reports stream-ended), so poll the
	// scrape until all three are visible: this stream's end is the third,
	// after the two played before the crash.
	var metrics map[string]int64
	await.Until(t, "metrics to show admission, delivery and the stream's end", func() bool {
		metrics = scrape(t, srv.URL)
		return metrics["admission_admitted_total"] > 0 && metrics["delivery_packets_total"] > 0 && metrics["streams_ended_total"] >= 3
	})
	// delivery_startup_seconds is the MSU's start-up histogram, one
	// observation per player, merged like the delivery counters.
	for _, name := range []string{"dispatch_total", "migrations_total", "delivery_bytes_total", "streams_ended_total", "delivery_startup_seconds_count"} {
		if metrics[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, metrics[name])
		}
	}

	// The starts from the head and out of the cache waited for no read and
	// the seek for at least one of 25 ms: they lie either side of the 20 ms
	// edge, which the default latency buckets (…10 ms, 50 ms…) do not have.
	fast, ok := metrics[`delivery_startup_seconds_bucket{le="0.02"}`]
	if slow := metrics["delivery_startup_seconds_count"] - fast; !ok || fast < 2 || slow < 1 {
		t.Errorf("delivery_startup_seconds: %d starts within 20 ms (edge present: %v), %d over; want the starts from RAM on one side and the seek on the other", fast, ok, slow)
	}
	if n := metrics["delivery_head_starts_total"]; n < 1 {
		t.Errorf("delivery_head_starts_total = %d after a play from the start of a title no cache held, want at least 1", n)
	}

	// readahead_pinned_pages is the MSUs' page-budget ledger: with every
	// stream ended, a page still counted there is a page a player leaked,
	// and one counted in readahead_lent_pages a loan never repaid.
	for _, name := range []string{"readahead_pinned_pages", "readahead_lent_pages"} {
		if v, ok := metrics[name]; !ok || v != 0 {
			t.Errorf("%s = %d (present: %v) with the streams idle, want 0", name, v, ok)
		}
	}

	// The play's timelines, each in sequence order: its first stream
	// dispatched, and the stream the re-dispatch started in its place,
	// which Info names since the migration, migrated and ended.
	timeline := func(id uint64) []string {
		var page obs.EventsPage
		if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/events?stream="+strconv.FormatUint(id, 10))), &page); err != nil {
			t.Fatal(err)
		}
		var kinds []string
		last := uint64(0)
		for _, ev := range page.Events {
			if ev.Seq <= last {
				t.Fatalf("timeline out of order: %+v", page.Events)
			}
			last = ev.Seq
			kinds = append(kinds, ev.Kind)
		}
		return kinds
	}
	for id, want := range map[uint64][]string{
		uint64(first):                           {obs.EvDispatch},
		uint64(stream.Info().Streams[0].Stream): {obs.EvMigrate, obs.EvEOF},
	} {
		kinds := timeline(id)
		for _, k := range want {
			if !slices.Contains(kinds, k) {
				t.Errorf("stream %d timeline missing %q: %v", id, k, kinds)
			}
		}
	}

	var page obs.EventsPage
	// The unfiltered timeline also carries the session-level admit.
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/events")), &page); err != nil {
		t.Fatal(err)
	}
	admits := 0
	for _, ev := range page.Events {
		if ev.Kind == obs.EvAdmit {
			admits++
		}
	}
	if admits == 0 {
		t.Errorf("no admit events on the timeline")
	}
}

// TestReportsWhilePlaying: a stream that plays and never ends still
// reaches the Coordinator. Within a few of the MSU's report periods
// (250 ms) its merged delivery_packets_total and the title's cache
// coverage move, and they keep moving while it plays.
func TestReportsWhilePlaying(t *testing.T) {
	cluster := movieCluster(t, 10*time.Second)
	c, err := Dial(cluster.Addr(), "rita")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	recv, err := NewReceiver("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := c.RegisterPort("tv", "mpeg1", recv.Addr(), ""); err != nil {
		t.Fatal(err)
	}
	stream, err := c.Play("movie", "tv", false)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Quit() //nolint:errcheck // the check is done by then
	// seen reads the merged packet count and the title's coverage.
	seen := func() (int64, wire.ContentCoverage) {
		t.Helper()
		st, err := c.StatusV2()
		if err != nil {
			t.Fatal(err)
		}
		var cov wire.ContentCoverage
		for _, d := range st.Disks {
			for _, cc := range d.Cached {
				if cc.Name == "movie" {
					cov = cc
				}
			}
		}
		return st.Snapshot.Counter("delivery_packets_total"), cov
	}
	// Each move must show within a few report periods of the last.
	start := time.Now()
	var first int64
	await.Until(t, "a report while the stream plays", func() bool {
		packets, cov := seen()
		first = packets
		return packets > 0 && cov.Players == 1 && cov.CachedPages > 0
	})
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("the first report while the stream plays took %v", waited)
	}
	start = time.Now()
	await.Until(t, "the counter to move while the stream plays", func() bool {
		packets, _ := seen()
		return packets > first
	})
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("the counter took %v to move while the stream plays", waited)
	}
	select {
	case <-stream.EOF():
		t.Fatal("the stream ended during the check")
	default:
	}
}

// slowReads delays every read call by d.
type slowReads struct {
	blockdev.BlockDevice
	d time.Duration
}

func (s slowReads) ReadAt(p []byte, off int64) error {
	time.Sleep(s.d) // the device-latency model: every read takes d
	return s.BlockDevice.ReadAt(p, off)
}

var metricRe = regexp.MustCompile(`(?m)^calliope_(\w+(?:\{[^}]*\})?) (\d+)$`)

// scrape reads the Coordinator's /metrics: every integer sample by name,
// a histogram's buckets with their label.
func scrape(t *testing.T, url string) map[string]int64 {
	t.Helper()
	metrics := make(map[string]int64)
	for _, m := range metricRe.FindAllStringSubmatch(httpGet(t, url+"/metrics"), -1) {
		v, _ := strconv.ParseInt(m[2], 10, 64)
		metrics[m[1]] = v
	}
	return metrics
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return string(body)
}
