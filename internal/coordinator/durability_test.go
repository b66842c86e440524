package coordinator

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/await"
	"calliope/internal/core"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// The one-copy rule, from the Coordinator's side: whatever a request
// does to the administrative database, a restart replays to the same
// tables (TestRestartEquivalence), and a request whose journal write
// fails has done nothing at all (TestFailedCommitChangesNothing).

// registerWalkMSU connects (or, given the old connection, reconnects) a
// fake MSU of the random walk with the given declarations and free
// space. It accepts every order (start-stream, delete-content,
// replicate) and holds nothing. A live registration is torn down first
// and its down event awaited, as a restarting MSU's would be.
func registerWalkMSU(t *testing.T, c *Coordinator, old *wire.Peer, id core.MSUID, free int64, names []string) *wire.Peer {
	t.Helper()
	if old != nil {
		old.Close() //nolint:errcheck // the old registration is being dropped on purpose
		await.Until(t, "MSU "+string(id)+" down", func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return !c.msus[id].alive
		})
	}
	conn := dialPeer(t, c, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == wire.TypeStartStream {
			return startOK(body), nil
		}
		return nil, nil
	})
	var decl []wire.ContentDecl
	for _, n := range names {
		decl = append(decl, wire.ContentDecl{Name: n, Type: "mpeg1", Length: time.Minute, Size: 640 * units.KB})
	}
	hello := wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: id, TransferAddr: "transfer:" + string(id), Disks: []wire.DiskInfo{{
		BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: free, Bandwidth: 30000 * units.Kbps, Contents: decl,
	}}}
	if err := conn.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestRestartEquivalence walks the catalog through every event that
// changes the administrative database — MSU registration and
// re-registration with changing declarations (the stale sweep), atomic
// and composite recordings committing, orphan commits, replica commits,
// cold-replica drops, deletes and added types — beside hellos, ports
// and plays, which journal nothing, on a file-backed database, and
// after every step opens a copy of the state directory: the reopened
// tables must equal the live ones exactly. At random steps it compacts
// and replays the pre-compaction journal over the new snapshot (the
// crash between the snapshot rename and the journal truncation). Any
// change to the live tables that does not go through admindb's Apply
// makes the two sides differ.
func TestRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 9, 28, 12, 0, 0, 0, time.UTC)
	opts := admindb.Options{Dir: dir, CompactAfter: -1, Now: func() time.Time { return now }}
	db, err := admindb.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck // test teardown
	c := startCoordinator(t, Config{Store: db})

	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return raw
	}
	check := func(step int, what string, compact bool) {
		t.Helper()
		// Every Apply runs under c.mu: holding it freezes the database
		// while the directory is copied.
		c.mu.Lock()
		defer c.mu.Unlock()
		journal := read("journal.log") // as it was before any compaction
		if compact {
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		live, err := db.Load()
		if err != nil {
			t.Fatal(err)
		}
		cp := t.TempDir()
		for name, raw := range map[string][]byte{"snapshot.json": read("snapshot.json"), "journal.log": journal} {
			if raw != nil {
				if err := os.WriteFile(filepath.Join(cp, name), raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		again, err := admindb.Open(admindb.Options{Dir: cp, CompactAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close() //nolint:errcheck // test teardown
		got, err := again.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !got.SavedAt.Equal(live.SavedAt) {
			t.Fatalf("step %d (%s): snapshot time %v reopened as %v", step, what, live.SavedAt, got.SavedAt)
		}
		got.SavedAt = live.SavedAt
		if !reflect.DeepEqual(got, live) {
			t.Fatalf("step %d (%s, compacted=%v): a restart would not replay to the live tables\nreopened %+v\n    live %+v", step, what, compact, got, live)
		}
	}

	rng := rand.New(rand.NewSource(16))
	ids := []core.MSUID{"m1", "m2", "m3"}
	msus := make(map[core.MSUID]*wire.Peer)
	titles := []string{"t1", "t2", "t3", "t4"}
	someTitles := func() []string {
		var out []string
		for _, n := range titles {
			if rng.Intn(2) == 0 {
				out = append(out, n)
			}
		}
		return out
	}
	anyName := func() string {
		c.mu.Lock()
		defer c.mu.Unlock()
		if all := c.db.Contents(); len(all) > 0 {
			return all[rng.Intn(len(all))].Info.Name
		}
		return "t1"
	}
	liveMSU := func() *wire.Peer {
		for _, i := range rng.Perm(len(ids)) {
			if p := msus[ids[i]]; p != nil {
				return p
			}
		}
		return nil
	}
	// attempt sends a request the walk does not need to succeed: a
	// refusal — a duplicate name, a title in use or already gone, an MSU
	// that re-registered meanwhile — is still a step.
	attempt := func(p *wire.Peer, msgType string, req any) {
		p.Call(msgType, req, nil) //nolint:errcheck // see above
	}
	client := clientPeer(t, c)
	for _, reg := range []wire.RegisterPort{
		{Name: "tv", Type: "mpeg1", Addr: "a:1"},
		{Name: "v", Type: "rtp-video", Addr: "a:2"},
		{Name: "a", Type: "vat-audio", Addr: "a:3"},
		{Name: "s", Type: "seminar", Components: map[string]string{"rtp-video": "v", "vat-audio": "a"}},
	} {
		if err := client.Call(wire.TypeRegisterPort, reg, nil); err != nil {
			t.Fatal(err)
		}
	}
	check(0, "ports", false)

	for step := 1; step <= 70; step++ {
		var what string
		switch k := rng.Intn(12); {
		case k < 3 || liveMSU() == nil:
			// (Re-)register, every third time nearly full so the next cache
			// report sheds a cold replica.
			id := ids[rng.Intn(len(ids))]
			free := int64(900)
			if rng.Intn(3) == 0 {
				free = 40
			}
			names := someTitles()
			c.mu.Lock()
			for _, rec := range c.db.Contents() { // keep (most of) what it recorded
				keep := rng.Intn(4) > 0
				if _, held := rec.Locate(id); held && len(rec.Info.Name) > 2 && keep {
					names = append(names, rec.Info.Name)
				}
			}
			c.mu.Unlock()
			msus[id] = registerWalkMSU(t, c, msus[id], id, free, names)
			what = fmt.Sprintf("register %s %v free=%d", id, names, free)
		case k == 3:
			typ, port := "mpeg1", "tv"
			if rng.Intn(2) == 0 {
				typ, port = "seminar", "s"
			}
			name := fmt.Sprintf("rec%d", step)
			what = "record " + typ + " " + name
			var ok wire.RecordOK
			if client.Call(wire.TypeRecord, wire.Record{Content: name, Type: typ, Port: port,
				Estimate: time.Second, ControlAddr: "a:9"}, &ok) != nil {
				break
			}
			for i, s := range ok.Streams {
				if rng.Intn(5) == 0 {
					break // leave the rest in flight
				}
				check(step, what+" (in flight)", false)
				attempt(msus[ok.MSU], wire.TypeRecordingDone, wire.RecordingDone{Stream: s.Stream, Content: s.Content,
					Type: s.Type, Disk: 0, Length: time.Duration(i+1) * time.Second, Size: 128 * units.KB})
			}
		case k == 4:
			what = "orphan commit"
			attempt(liveMSU(), wire.TypeRecordingDone, wire.RecordingDone{Stream: core.StreamID(100000 + step),
				Content: fmt.Sprintf("orphan%d", rng.Intn(4)), Type: "mpeg1", Disk: 0, Length: time.Second, Size: 64 * units.KB})
		case k == 5 || k == 6:
			name := anyName()
			what = "replica commit of " + name
			attempt(liveMSU(), wire.TypeReplicateDone, wire.ReplicateDone{ID: uint64(100000 + step), Content: name,
				Disk: 0, Size: 640 * units.KB, Bytes: int64(640 * units.KB)})
		case k == 7:
			what = "cache report"
			if err := liveMSU().Call(wire.TypeCacheReport, wire.CacheReport{Seq: reportSeq.Add(1), Disk: 0}, nil); err != nil {
				t.Fatal(err)
			}
			await.Until(t, "cold-replica drop", func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return len(c.removals) == 0
			})
		case k == 8:
			name := anyName()
			what = "delete " + name
			attempt(client, wire.TypeDeleteContent, wire.DeleteContent{Content: name})
		case k == 9:
			what = "add type"
			attempt(client, wire.TypeAddType, wire.AddType{Type: core.ContentType{
				Name: fmt.Sprintf("type%d", rng.Intn(3)), Class: core.ConstantRate, Bandwidth: units.Mbps, Storage: units.Mbps, Protocol: "cbr"}})
		default:
			name := anyName()
			what = "hello, port, play " + name
			p := clientPeer(t, c)
			if err := p.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, nil); err != nil {
				t.Fatal(err)
			}
			var ok wire.PlayOK
			if p.Call(wire.TypePlay, wire.Play{Content: name, Port: "tv", ControlAddr: "a:9"}, &ok) == nil && rng.Intn(2) == 0 {
				for _, s := range ok.Streams {
					attempt(msus[ok.MSU], wire.TypeStreamEnded, wire.StreamEnded{Stream: s.Stream, Cause: "eof"})
				}
			}
		}
		check(step, what, rng.Intn(6) == 0)
	}

	// The walk is only worth its name if it went everywhere it claims to.
	c.mu.Lock()
	st := c.ids
	c.mu.Unlock()
	if st.NextStream == 0 || st.NextSession < 2 || c.om.replDone.Load() == 0 || c.om.replDropped.Load() == 0 {
		t.Fatalf("walk too tame: issued IDs %+v, metrics %+v", st, c.ObsSnapshot().Counters)
	}
}

// frozen is everything a failed commit must leave alone, flattened so
// two of them compare byte for byte.
func frozen(t *testing.T, c *Coordinator) string {
	t.Helper()
	st := c.statusV2()
	c.mu.Lock()
	defer c.mu.Unlock()
	var msus []core.MSUID
	for _, id := range []core.MSUID{"m1", "m2", "m3"} {
		if c.msus[id] != nil {
			msus = append(msus, id)
		}
	}
	var contents []core.ContentInfo
	for _, rec := range c.db.Contents() {
		info := rec.Info
		info.Replicas = rec.Holders()
		contents = append(contents, info)
	}
	raw, err := json.Marshal(map[string]any{
		"contents": contents, "types": c.db.Types(), "counters": c.db.Counters(), "recordings": c.db.Recordings(),
		"disks": st.Disks, "net": st.Net, "msus": msus, "sessions": len(c.sessions),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestFailedCommitChangesNothing: with the database cut off, every
// request that must journal — an MSU registering new content, the last
// component of a composite recording committing, a replica committing —
// is refused and leaves the catalog, the ledgers, the pending composite
// and the counters exactly as they were; once the database is back the
// same request goes through. A hello and a port registration journal
// nothing (their IDs come from the start's lease) and go through all
// the same. (Before journal-then-apply, recording-done and msu-hello
// left the catalog entry, the converted space grant and the consumed
// composite behind.)
func TestFailedCommitChangesNothing(t *testing.T) {
	store := admindb.NewMem()
	c := startCoordinator(t, Config{Store: store})
	decl := []wire.ContentDecl{{Name: "movie", Type: "mpeg1", Length: time.Minute, Size: 640 * units.KB}}
	m1 := fakeMSUPeer(t, c, "m1", decl, 30000*units.Kbps)
	m2 := fakeMSUPeer(t, c, "m2", nil, 30000*units.Kbps)
	client := clientPeer(t, c)
	for _, reg := range []wire.RegisterPort{
		{Name: "v", Type: "rtp-video", Addr: "a:2"},
		{Name: "a", Type: "vat-audio", Addr: "a:3"},
		{Name: "s", Type: "seminar", Components: map[string]string{"rtp-video": "v", "vat-audio": "a"}},
	} {
		if err := client.Call(wire.TypeRegisterPort, reg, nil); err != nil {
			t.Fatal(err)
		}
	}
	var rec wire.RecordOK
	if err := client.Call(wire.TypeRecord, wire.Record{Content: "talk", Type: "seminar", Port: "s",
		Estimate: 5 * time.Second, ControlAddr: "a:9"}, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.MSU != "m1" || len(rec.Streams) != 2 {
		t.Fatalf("composite recording = %+v, want two streams on m1", rec)
	}
	done := func(i int) wire.RecordingDone {
		s := rec.Streams[i]
		return wire.RecordingDone{Stream: s.Stream, Content: s.Content, Type: s.Type, Disk: 0,
			Length: 3 * time.Second, Size: 128 * units.KB}
	}
	if err := m1.Call(wire.TypeRecordingDone, done(0), nil); err != nil {
		t.Fatal(err)
	}

	m3 := dialPeer(t, c, nil)
	newcomer := dialPeer(t, c, nil)
	requests := []struct {
		name string
		call func() error
	}{
		{"msu-hello with new content", func() error {
			return m3.Call(wire.TypeMSUHello, wire.MSUHello{ProtoVersion: wire.ProtoVersion, ID: "m3", Disks: []wire.DiskInfo{{
				BlockSize: 64 * 1024, TotalBlocks: 1000, FreeBlocks: 900,
				Contents: []wire.ContentDecl{{Name: "fresh", Type: "mpeg1", Length: time.Minute, Size: units.MB}},
			}}}, &wire.MSUWelcome{})
		}},
		{"recording-done for the last component", func() error { return m1.Call(wire.TypeRecordingDone, done(1), nil) }},
		{"replicate-done", func() error {
			return m2.Call(wire.TypeReplicateDone, wire.ReplicateDone{ID: 7, Content: "movie", Disk: 0,
				Size: 640 * units.KB, Bytes: int64(640 * units.KB)}, nil)
		}},
	}

	before := frozen(t, c)
	store.Close() //nolint:errcheck // the crash handle: every Apply from here on fails
	for _, req := range requests {
		if err := req.call(); err == nil {
			t.Fatalf("%s succeeded without its journal write", req.name)
		}
		if after := frozen(t, c); after != before {
			t.Fatalf("%s failed its journal write and still left a trace:\nbefore %s\n after %s", req.name, before, after)
		}
	}
	if got := c.ObsSnapshot().Counters["admindb_apply_errors_total"]; got != int64(len(requests)) {
		t.Fatalf("admindb_apply_errors_total = %d, want %d", got, len(requests))
	}
	if err := newcomer.Call(wire.TypeHello, wire.Hello{ProtoVersion: wire.ProtoVersion, User: "t"}, &wire.Welcome{}); err != nil {
		t.Fatalf("hello with the database cut off: %v", err)
	}
	if err := client.Call(wire.TypeRegisterPort, wire.RegisterPort{Name: "tv", Type: "mpeg1", Addr: "a:1"}, &wire.PortOK{}); err != nil {
		t.Fatalf("register-port with the database cut off: %v", err)
	}

	store.Reopen()
	for _, req := range requests {
		if err := req.call(); err != nil {
			t.Fatalf("%s retried with the database back: %v", req.name, err)
		}
	}
	var cl wire.ContentList
	if err := client.Call(wire.TypeListContent, struct{}{}, &cl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, item := range cl.Items {
		names = append(names, fmt.Sprintf("%s%v", item.Name, item.Replicas))
	}
	want := "[fresh[m3/disk0] movie[m1/disk0 m2/disk0] talk[] talk/rtp-video[m1/disk0] talk/vat-audio[m1/disk0]]"
	if fmt.Sprint(names) != want {
		t.Fatalf("catalog after the retries = %v\nwant %s", names, want)
	}
	c.mu.Lock()
	pending := len(c.db.Recordings())
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("composite still pending after its last component committed")
	}
}
