package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRingOverflowOrdering fills a small ring past capacity and checks
// that the oldest events fall off, ordering stays strict, and Since
// pages from any cursor.
func TestRingOverflowOrdering(t *testing.T) {
	r := NewRing(8, nil)
	for i := 0; i < 20; i++ {
		seq := r.Append(Event{Kind: EvDispatch, Stream: uint64(i % 2), Disk: -1})
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	tail := r.Tail(0)
	if len(tail) != 8 {
		t.Fatalf("tail length = %d, want 8", len(tail))
	}
	for i, ev := range tail {
		if want := uint64(13 + i); ev.Seq != want {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}

	evs, next := r.Since(0, 0, 0)
	if next != 20 {
		t.Fatalf("next = %d, want 20", next)
	}
	if len(evs) != 8 || evs[0].Seq != 13 {
		t.Fatalf("since(0) = %d events starting at %d", len(evs), evs[0].Seq)
	}

	evs, _ = r.Since(15, 0, 2)
	if len(evs) != 2 || evs[0].Seq != 16 || evs[1].Seq != 17 {
		t.Fatalf("since(15, max 2) = %+v", evs)
	}

	// Stream filter: only stream 1's events (odd appends).
	evs, _ = r.Since(0, 1, 0)
	for _, ev := range evs {
		if ev.Stream != 1 {
			t.Fatalf("stream filter leaked event %+v", ev)
		}
	}
	if len(evs) != 4 {
		t.Fatalf("stream-filtered count = %d, want 4", len(evs))
	}
}

func TestRingUpdatedWakes(t *testing.T) {
	r := NewRing(4, nil)
	ch := r.Updated()
	select {
	case <-ch:
		t.Fatal("updated channel closed before any append")
	default:
	}
	r.Append(Event{Kind: EvAdmit, Disk: -1})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("updated channel not closed by append")
	}
}

func TestRingInjectedClock(t *testing.T) {
	stamp := time.Date(1996, 1, 22, 9, 0, 0, 0, time.UTC) // USENIX '96
	r := NewRing(4, func() time.Time { return stamp })
	r.Append(Event{Kind: EvAdmit, Disk: -1})
	if got := r.Tail(1)[0].Time; !got.Equal(stamp) {
		t.Fatalf("event time = %v, want injected %v", got, stamp)
	}
}

// TestRingWrapAround checks Since and Tail against a plain list of the
// last size events at every fill: below capacity, exactly full, and with
// the ring's oldest slot anywhere in the buffer.
func TestRingWrapAround(t *testing.T) {
	const size = 5
	r := NewRing(size, nil)
	var all []Event
	for n := 1; n <= 3*size+2; n++ {
		ev := Event{Kind: EvDispatch, Stream: uint64(n % 3), Disk: -1}
		ev.Seq = r.Append(ev)
		all = append(all, ev)
		held := all[max(0, len(all)-size):]

		for seq := uint64(0); seq <= uint64(n)+1; seq++ {
			for stream := uint64(0); stream < 3; stream++ {
				for lim := 0; lim <= 3; lim++ {
					var want []uint64
					for _, ev := range held {
						if ev.Seq <= seq || (stream != 0 && ev.Stream != stream) {
							continue
						}
						if lim > 0 && len(want) == lim {
							break
						}
						want = append(want, ev.Seq)
					}
					got, next := r.Since(seq, stream, lim)
					if next != uint64(n) {
						t.Fatalf("fill %d: Since next = %d, want %d", n, next, n)
					}
					if s := seqs(got); !slices.Equal(s, want) {
						t.Fatalf("fill %d: Since(%d, stream %d, max %d) = %v, want %v", n, seq, stream, lim, s, want)
					}
				}
			}
		}
		for _, k := range []int{0, 1, size - 1, size, size + 1} {
			want := held
			if k > 0 && len(held) > k {
				want = held[len(held)-k:]
			}
			if s := seqs(r.Tail(k)); !slices.Equal(s, seqs(want)) {
				t.Fatalf("fill %d: Tail(%d) = %v, want %v", n, k, s, seqs(want))
			}
		}
	}

	// Paging across the wrap: a follower that reads two at a time sees
	// every held event once, in order.
	var paged []uint64
	for cursor := r.next - size - 1; ; {
		evs, _ := r.Since(cursor, 0, 2)
		if len(evs) == 0 {
			break
		}
		paged = append(paged, seqs(evs)...)
		cursor = evs[len(evs)-1].Seq
	}
	if want := seqs(all[len(all)-size:]); !slices.Equal(paged, want) {
		t.Fatalf("paged = %v, want %v", paged, want)
	}

	// Updated still fires once the ring is wrapping.
	ch := r.Updated()
	r.Append(Event{Kind: EvAdmit, Disk: -1})
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("updated channel not closed by an append into a full ring")
	}
}

func seqs(evs []Event) []uint64 {
	out := make([]uint64, 0, len(evs))
	for _, ev := range evs {
		out = append(out, ev.Seq)
	}
	return out
}

// BenchmarkRingAppend appends into a full ring. An append overwrites the
// oldest slot, so ns/op is the same at either capacity and nothing is
// allocated; with the buffer shifted down on every eviction it grew with
// the capacity (≈ 27 µs an event at 4,096).
func BenchmarkRingAppend(b *testing.B) {
	for _, size := range []int{64, DefaultEventCap} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			r := NewRing(size, nil)
			ev := Event{Kind: EvEOF, Stream: 7, MSU: "msu0", Disk: 0, Detail: "client quit"}
			for i := 0; i < size; i++ {
				r.Append(ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Append(ev)
			}
		})
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := New(Options{})
	reg.Counter("admission_admitted_total").Add(2)
	reg.Events().Append(Event{Kind: EvAdmit, Session: 1, Disk: -1})
	reg.Events().Append(Event{Kind: EvDispatch, Stream: 9, MSU: "m0", Disk: 0})

	srv := httptest.NewServer(NewHTTPHandler(reg.Snapshot, reg.Events().Since))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(body, "calliope_admission_admitted_total 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	var page EventsPage
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/events?since=0")), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 2 || page.Next != 2 {
		t.Fatalf("events page = %+v", page)
	}
	if page.Events[1].Kind != EvDispatch || page.Events[1].Stream != 9 {
		t.Fatalf("event[1] = %+v", page.Events[1])
	}

	// Filtered tail.
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/events?stream=9")), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 1 || page.Events[0].MSU != "m0" {
		t.Fatalf("filtered events page = %+v", page)
	}

	// pprof is mounted.
	if body := httpGet(t, srv.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index missing:\n%.200s", body)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
