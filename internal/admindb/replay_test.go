package admindb

import (
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"calliope/internal/core"
)

// contentWith is a title held on disk 0 of each listed MSU, the first
// one primary.
func contentWith(name string, holders ...core.MSUID) Mutation {
	rec := testContent(name)
	for _, id := range holders {
		rec.Locations = append(rec.Locations, Location{MSU: id})
	}
	if len(holders) > 0 {
		rec.Info.Disk = core.DiskID{MSU: holders[0]}
	}
	return PutContent(rec)
}

func set(name string, id core.MSUID) Mutation  { return SetLocation(name, Location{MSU: id}) }
func drop(name string, id core.MSUID) Mutation { return DropLocation(name, id) }

// journalOf applies muts one Apply at a time — the way the Coordinator
// issues location records — to a fresh database seeded with start, and
// returns the bytes that reached the journal and the tables they left.
func journalOf(t *testing.T, start, muts []Mutation) ([]byte, *State) {
	t.Helper()
	dir := t.TempDir()
	db := openTest(t, dir, -1)
	defer db.Close() //nolint:errcheck // test teardown
	if err := db.Apply(start...); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, m := range muts {
		if err := db.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return data, mustLoad(t, db)
}

// replayOver replays a journal over the tables a State describes.
func replayOver(t *testing.T, st *State, journal []byte) *State {
	t.Helper()
	tb := newTables()
	tb.load(st)
	if good, _ := replayJournal(journal, tb); good != int64(len(journal)) {
		t.Fatalf("journal replayed to %d of %d bytes", good, len(journal))
	}
	return tb.snapshot()
}

func primaries(st *State) map[string]core.MSUID {
	out := make(map[string]core.MSUID)
	for _, rec := range st.Contents {
		out[rec.Info.Name] = rec.Info.Disk.MSU
	}
	return out
}

// TestReplayIdempotent: a journal suffix replayed over a snapshot that
// already contains it — the crash between the snapshot rename and the
// journal truncation — is a no-op, the primary included. The first case
// is the counter-example to deriving the primary from history at replay
// time: live it ends {A★, B}; the same four records replayed over
// {A★, B} by the smallest-id rule alone would end {B★, A}.
func TestReplayIdempotent(t *testing.T) {
	cases := []struct {
		name    string
		start   []Mutation
		muts    []Mutation
		primary core.MSUID
	}{
		{"drop-primary-twice", []Mutation{contentWith("x", "A", "C")},
			[]Mutation{drop("x", "A"), set("x", "A"), set("x", "B"), drop("x", "C")}, "A"},
		{"first-location-after-empty", []Mutation{contentWith("x", "M", "Q")},
			[]Mutation{drop("x", "M"), drop("x", "Q"), set("x", "M"), set("x", "Z")}, "M"},
		{"set-into-empty-put", []Mutation{contentWith("x")},
			[]Mutation{set("x", "B"), set("x", "A"), drop("x", "B"), set("x", "B")}, "A"},
		{"delete-and-recreate", []Mutation{contentWith("x", "B", "A")},
			[]Mutation{drop("x", "B"), DeleteContent("x"), contentWith("x", "C", "A"), drop("x", "A")}, "C"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			journal, live := journalOf(t, tc.start, tc.muts)
			if got := primaries(live)["x"]; got != tc.primary {
				t.Fatalf("live primary = %q, want %q", got, tc.primary)
			}
			if again := replayOver(t, live, journal); !reflect.DeepEqual(again, live) {
				t.Fatalf("replaying the journal over its own result changed it:\n got %+v\nwant %+v", again.Contents, live.Contents)
			}
		})
	}

	// The same property over seeded random walks: three MSUs, two
	// titles, every location op plus delete and re-create.
	rng := rand.New(rand.NewSource(16))
	msus := []core.MSUID{"A", "B", "C"}
	names := []string{"x", "y"}
	for walk := 0; walk < 40; walk++ {
		var muts []Mutation
		for i := 0; i < 8; i++ {
			name, id := names[rng.Intn(2)], msus[rng.Intn(3)]
			switch rng.Intn(8) {
			case 0:
				muts = append(muts, DeleteContent(name))
			case 1:
				muts = append(muts, contentWith(name, id))
			case 2, 3, 4:
				muts = append(muts, set(name, id))
			default:
				muts = append(muts, drop(name, id))
			}
		}
		journal, live := journalOf(t, []Mutation{contentWith("x", "A", "C"), contentWith("y", "B")}, muts)
		if again := replayOver(t, live, journal); !reflect.DeepEqual(again, live) {
			t.Fatalf("walk %d (%+v): replay over its own result changed it:\n got %+v\nwant %+v", walk, muts, again.Contents, live.Contents)
		}
	}
}

// TestReplayUnstampedJournal: location records written before the
// primary stamp existed replay by the smallest-id rule.
func TestReplayUnstampedJournal(t *testing.T) {
	var journal []byte
	for _, m := range []Mutation{contentWith("x", "C", "B", "A"), drop("x", "C"), drop("x", "A"), set("x", "A")} {
		var err error
		if journal, err = appendFrame(journal, m); err != nil {
			t.Fatal(err)
		}
	}
	st := replayOver(t, &State{}, journal)
	want := ContentRecord{Info: testContent("x").Info, Locations: []Location{{MSU: "A"}, {MSU: "B"}}}
	want.Info.Disk = core.DiskID{MSU: "B"}
	if len(st.Contents) != 1 || !reflect.DeepEqual(st.Contents[0], want) {
		t.Fatalf("contents = %+v, want %+v", st.Contents, want)
	}
}

// TestOpenPR15Fixture opens a state directory the commit before the
// one-copy database wrote (its Coordinator driving its file store):
// a snapshot whose clip entry still names a primary that was dropped
// before the snapshot, journal records that repoint movie and news
// without saying where to, a composite with the old "children" key, a
// recording in flight, non-zero counters and a torn final write. The
// frame layout, the op names and the snapshot keys are unchanged, so
// it must open to the tables that Coordinator had, and keep appending.
func TestOpenPR15Fixture(t *testing.T) {
	dir := t.TempDir()
	for _, f := range []string{snapshotFile, journalFile} {
		raw, err := os.ReadFile(filepath.Join("testdata", "state-pr15", f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db := openTest(t, dir, -1)
	st := mustLoad(t, db)

	type row struct {
		primary  core.MSUID
		holders  []core.MSUID
		children []string
	}
	want := map[string]row{
		"clip":           {"m2", []core.MSUID{"m2"}, nil},
		"movie":          {"m2", []core.MSUID{"m2", "m3"}, nil},
		"news":           {"m2", []core.MSUID{"m2"}, nil},
		"talk":           {"m1", []core.MSUID{"m1"}, []string{"talk/rtp-video", "talk/vat-audio"}},
		"talk/rtp-video": {"m1", []core.MSUID{"m1"}, nil},
		"talk/vat-audio": {"m1", []core.MSUID{"m1"}, nil},
	}
	got := make(map[string]row)
	for _, rec := range st.Contents {
		r := row{primary: rec.Info.Disk.MSU, children: rec.Info.Children}
		for _, d := range rec.Holders() {
			r.holders = append(r.holders, d.MSU)
		}
		got[rec.Info.Name] = r
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("contents = %+v\nwant %+v", got, want)
	}
	if len(st.Types) != 1 || st.Types[0].Name != "jpeg" {
		t.Errorf("types = %+v, want jpeg", st.Types)
	}
	if want := (Counters{NextSession: 2, NextStream: 4, NextGroup: 3, NextPort: 5}); st.Counters != want {
		t.Errorf("counters = %+v, want %+v", st.Counters, want)
	}
	if want := []PendingRecording{{Group: 3, MSU: "m1", Contents: []string{"live"}}}; !reflect.DeepEqual(st.Recordings, want) {
		t.Errorf("recordings = %+v, want %+v", st.Recordings, want)
	}
	if st.SavedAt.IsZero() {
		t.Error("snapshot timestamp lost")
	}

	// The torn tail was cut away and the journal takes new records.
	if err := db.Apply(DeleteRecording(3), drop("movie", "m2")); err != nil {
		t.Fatal(err)
	}
	live := mustLoad(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openTest(t, dir, -1)
	defer db2.Close() //nolint:errcheck // test teardown
	if again := mustLoad(t, db2); !reflect.DeepEqual(again, live) {
		t.Fatalf("reopened fixture = %+v\nwant %+v", again, live)
	}
	if p := primaries(live)["movie"]; p != "m3" || len(live.Recordings) != 0 {
		t.Fatalf("after appending: movie primary %q, recordings %+v", p, live.Recordings)
	}
}

// fixtureJournal frames the mutations of applyFixture.
func fixtureJournal(t testing.TB) []byte {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close() //nolint:errcheck // test teardown
	err = db.Apply(
		PutType(testType("mpeg1")),
		PutContent(testContent("news", Location{MSU: "msu1", Disk: 0})),
		PutContent(testContent("movie")),
		SetLocation("movie", Location{MSU: "msu2", Disk: 1}),
		SetLocation("news", Location{MSU: "msu2", Disk: 0}),
		DropLocation("news", "msu1"),
		DeleteContent("stale"),
		SetCounters(Counters{NextSession: 10, NextStream: 20, NextGroup: 5, NextPort: 3}),
		PutRecording(PendingRecording{Group: 4, MSU: "msu2", Contents: []string{"live"}}),
		DeleteRecording(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzReplayJournal: replay never panics on arbitrary bytes, never
// claims more than it was given, and what it keeps is self-contained —
// replaying just the kept prefix rebuilds the same tables, which is
// what the tail repair in Open relies on.
func FuzzReplayJournal(f *testing.F) {
	good := fixtureJournal(f)
	f.Add(good)
	// The damage cases of TestFileStoreCorruption and
	// TestJournalRejectsOversizeLength.
	f.Add(good[:len(good)-3])            // truncated mid-record
	f.Add(good[:len(good)-len(good)/3])  // truncated somewhere earlier
	f.Add(append([]byte{}, good[:5]...)) // truncated mid-header
	flipped := append([]byte{}, good...)
	flipped[4] ^= 0xff // first record's CRC
	f.Add(flipped)
	flipped = append([]byte{}, good...)
	flipped[journalHeaderSize] ^= 0x01 // first record's payload
	f.Add(flipped)
	var hdr [journalHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(maxRecordSize+1))
	f.Add(hdr[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := newTables()
		good, records := replayJournal(data, tb)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good = %d of %d bytes", good, len(data))
		}
		again := newTables()
		good2, records2 := replayJournal(data[:good], again)
		if good2 != good || records2 != records {
			t.Fatalf("kept prefix replays to (%d, %d), the whole to (%d, %d)", good2, records2, good, records)
		}
		if !reflect.DeepEqual(again.snapshot(), tb.snapshot()) {
			t.Fatalf("kept prefix rebuilds different tables:\n got %+v\nwant %+v", again.snapshot(), tb.snapshot())
		}
	})
}

// FuzzSnapshotDecode: whatever decodes as a snapshot loads without a
// panic, and the tables it loads to survive being written out and read
// back — what Compact writes, Open reads to the same thing.
func FuzzSnapshotDecode(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "state-pr15", snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"contents":[{"info":{"Name":"x","Disk":{"MSU":"gone"}},"locations":[{"msu":"b","disk":1},{"msu":"a","disk":0}]}],"counters":{"nextStream":7}}`))
	f.Add([]byte("{not json"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var snap State
		if json.Unmarshal(raw, &snap) != nil {
			return
		}
		tb := newTables()
		tb.load(&snap)
		first := tb.snapshot()
		out, err := json.Marshal(first)
		if err != nil {
			return // a timestamp JSON cannot carry; Compact would report it
		}
		var back State
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("snapshot does not decode again: %v", err)
		}
		tb = newTables()
		tb.load(&back)
		second := tb.snapshot()
		if !first.SavedAt.Equal(second.SavedAt) {
			t.Fatalf("timestamp %v read back as %v", first.SavedAt, second.SavedAt)
		}
		first.SavedAt = second.SavedAt
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("snapshot read back differently:\n got %+v\nwant %+v", second, first)
		}
	})
}
