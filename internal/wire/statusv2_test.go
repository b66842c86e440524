package wire

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"

	"calliope/internal/obs"
)

// TestStatusV2OnTheWire pins the report's contract with its readers:
// every Coordinator load figure travels under its published name and is
// read back through Snapshot.Gauge / Snapshot.Counter, and the per-disk
// and per-NIC detail survives the trip.
func TestStatusV2OnTheWire(t *testing.T) {
	gauges := map[string]int64{
		GaugeMSUs: 3, GaugeMSUsAvailable: 2, GaugeActiveStreams: 7, GaugeQueuedPlays: 1,
		GaugeContents: 12, GaugeSessions: 4, GaugeLostRecs: 1, GaugeReplActive: 2,
	}
	counters := map[string]int64{
		CounterRequests: 99, CounterReplPlanned: 5, CounterReplDone: 3,
		CounterReplAborted: 1, CounterReplDropped: 1, CounterReplBytes: 1 << 20,
	}
	raw, err := json.Marshal(StatusV2{
		Version:  ProtoVersion,
		Snapshot: obs.Snapshot{Gauges: gauges, Counters: counters},
		Disks:    []DiskUsage{{Alive: true}},
		Net:      []NetUsage{{MSU: "m0", Alive: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"msus_available":2`, `"queued_plays":1`, `"lost_recordings":1`, `"repl_active":2`,
		`"requests_total":99`, `"repl_bytes_copied_total":1048576`} {
		if !strings.Contains(string(raw), name) {
			t.Errorf("encoded report lacks %s: %s", name, raw)
		}
	}
	var got StatusV2
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != ProtoVersion || len(got.Disks) != 1 || len(got.Net) != 1 || got.Net[0].MSU != "m0" {
		t.Fatalf("structured fields lost: %+v", got)
	}
	for name, want := range gauges {
		if got.Snapshot.Gauge(name) != want {
			t.Errorf("gauge %s = %d, want %d", name, got.Snapshot.Gauge(name), want)
		}
	}
	for name, want := range counters {
		if got.Snapshot.Counter(name) != want {
			t.Errorf("counter %s = %d, want %d", name, got.Snapshot.Counter(name), want)
		}
	}
}

// TestCallContextCancel pins CallContext's cancellation semantics: a
// canceled context abandons the call with context.Canceled in the
// error chain, and the connection stays usable for later calls.
func TestCallContextCancel(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	held, release := make(chan struct{}), make(chan struct{})
	server := NewPeer(b, func(msgType string, _ json.RawMessage) (any, error) {
		if msgType == "slow" {
			close(held)
			<-release
		}
		return map[string]string{"ok": "yes"}, nil
	}, nil)
	defer server.Close()
	client := NewPeer(a, nil, nil)
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-held // the call is on the server: cancel it mid-flight
		cancel()
	}()
	err := client.CallContext(ctx, "slow", struct{}{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CallContext after cancel = %v, want context.Canceled", err)
	}

	close(release) // let the parked handler finish before reusing the pipe
	var resp map[string]string
	if err := client.CallContext(context.Background(), "fast", struct{}{}, &resp); err != nil {
		t.Fatalf("connection unusable after canceled call: %v", err)
	}
	if resp["ok"] != "yes" {
		t.Fatalf("resp = %v", resp)
	}
}

// TestCallContextPreCanceled pins the fast path: an already-dead
// context fails before any bytes hit the wire.
func TestCallContextPreCanceled(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client := NewPeer(a, nil, nil)
	defer client.Close()
	server := NewPeer(b, nil, nil)
	defer server.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := client.CallContext(ctx, "x", struct{}{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled CallContext = %v, want context.Canceled", err)
	}
}
