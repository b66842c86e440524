package admindb

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"calliope/internal/core"
)

// fixedNow is the injected clock for snapshot timestamps.
var fixedNow = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func openTest(t *testing.T, dir string, compactAfter int) *DB {
	t.Helper()
	s, err := Open(Options{
		Dir:          dir,
		Now:          func() time.Time { return fixedNow },
		CompactAfter: compactAfter,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func testType(name string) core.ContentType {
	return core.ContentType{Name: name, Bandwidth: 4_000_000, Storage: 4_000_000}
}

func testContent(name string, locs ...Location) ContentRecord {
	return ContentRecord{
		Info:      core.ContentInfo{Name: name, Type: "mpeg1", Length: 90 * time.Second, Size: 1 << 20},
		Locations: locs,
	}
}

// applyFixture journals a representative spread of mutations and
// returns the state they should produce.
func applyFixture(t *testing.T, s Store) *State {
	t.Helper()
	muts := []Mutation{
		PutType(testType("mpeg1")),
		PutType(testType("mpeg2")),
		PutContent(testContent("news", Location{MSU: "msu1", Disk: 0})),
		PutContent(testContent("movie")),
		SetLocation("movie", Location{MSU: "msu2", Disk: 1}),
		SetLocation("news", Location{MSU: "msu2", Disk: 0}),
		DropLocation("news", "msu1"),
		PutContent(testContent("stale")),
		DeleteContent("stale"),
		SetCounters(Counters{NextSession: 10, NextStream: 20, NextGroup: 5, NextPort: 3}),
		PutRecording(PendingRecording{Group: 4, MSU: "msu2", Contents: []string{"live"}}),
		PutRecording(PendingRecording{Group: 5, MSU: "msu1", Contents: []string{"gone"}}),
		DeleteRecording(5),
	}
	for _, m := range muts {
		if err := s.Apply(m); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	st, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st
}

func checkFixture(t *testing.T, st *State) {
	t.Helper()
	if got := len(st.Types); got != 2 {
		t.Fatalf("types = %d, want 2", got)
	}
	if len(st.Contents) != 2 {
		t.Fatalf("contents = %d, want 2 (got %+v)", len(st.Contents), st.Contents)
	}
	// Deterministic order: movie, news.
	movie, news := st.Contents[0], st.Contents[1]
	if movie.Info.Name != "movie" || news.Info.Name != "news" {
		t.Fatalf("content order = %q, %q; want movie, news", movie.Info.Name, news.Info.Name)
	}
	if len(movie.Locations) != 1 || movie.Locations[0] != (Location{MSU: "msu2", Disk: 1}) {
		t.Errorf("movie locations = %+v", movie.Locations)
	}
	if len(news.Locations) != 1 || news.Locations[0] != (Location{MSU: "msu2", Disk: 0}) {
		t.Errorf("news locations = %+v (replica on MSU 1 should be dropped)", news.Locations)
	}
	want := Counters{NextSession: 10, NextStream: 20, NextGroup: 5, NextPort: 3}
	if st.Counters != want {
		t.Errorf("counters = %+v, want %+v", st.Counters, want)
	}
	if len(st.Recordings) != 1 || st.Recordings[0].Group != 4 {
		t.Errorf("recordings = %+v, want only group 4", st.Recordings)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	checkFixture(t, applyFixture(t, s))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: journal-only replay (no snapshot was ever written).
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("snapshot should not exist before compaction (err=%v)", err)
	}
	s2 := openTest(t, dir, -1)
	defer s2.Close() //nolint:errcheck // test teardown
	st, err := s2.Load()
	if err != nil {
		t.Fatalf("Load after reopen: %v", err)
	}
	checkFixture(t, st)
}

func TestFileStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	applyFixture(t, s)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Journal must be empty, snapshot present and timestamped by the
	// injected clock.
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after compact: size=%v err=%v, want empty", fi.Size(), err)
	}
	// Mutations after compaction land in the (now empty) journal.
	if err := s.Apply(PutContent(testContent("late", Location{MSU: "msu3", Disk: 0}))); err != nil {
		t.Fatalf("Apply after compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTest(t, dir, -1)
	defer s2.Close() //nolint:errcheck // test teardown
	st, err := s2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !st.SavedAt.Equal(fixedNow) {
		t.Errorf("SavedAt = %v, want %v", st.SavedAt, fixedNow)
	}
	if len(st.Contents) != 3 {
		t.Fatalf("contents = %d, want 3 (snapshot + journal suffix)", len(st.Contents))
	}
	checkFixture(t, &State{
		Types: st.Types, Contents: st.Contents[1:], Counters: st.Counters, Recordings: st.Recordings,
	})
	if st.Contents[0].Info.Name != "late" {
		t.Errorf("post-compaction record = %q, want late", st.Contents[0].Info.Name)
	}
}

func TestFileStoreAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 3)
	applyFixture(t, s) // 13 records, threshold 3 → several compactions
	if fi, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot after auto-compaction: %v err=%v", fi, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openTest(t, dir, 3)
	defer s2.Close() //nolint:errcheck // test teardown
	st, err := s2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	checkFixture(t, st)
}

func TestCountersNeverMoveBackwards(t *testing.T) {
	s := NewMem()
	if err := s.Apply(SetCounters(Counters{NextSession: 9, NextStream: 40, NextGroup: 7, NextPort: 2})); err != nil {
		t.Fatal(err)
	}
	// A stale, smaller counter record (e.g. replayed out of a journal
	// suffix over a newer snapshot) must not regress anything.
	if err := s.Apply(SetCounters(Counters{NextSession: 3, NextStream: 50, NextGroup: 1, NextPort: 1})); err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := Counters{NextSession: 9, NextStream: 50, NextGroup: 7, NextPort: 2}
	if st.Counters != want {
		t.Errorf("counters = %+v, want element-wise max %+v", st.Counters, want)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMem()
	checkFixture(t, applyFixture(t, s))
	// Load must hand out copies: mutating the returned state must not
	// leak back into the store.
	st, _ := s.Load()
	st.Contents[0].Locations[0].MSU = "other"
	st2, _ := s.Load()
	if st2.Contents[0].Locations[0].MSU == "other" {
		t.Fatal("Load returned aliased state")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(PutType(testType("x"))); err == nil {
		t.Fatal("Apply after Close should fail")
	}
	s.Reopen()
	checkFixture(t, mustLoad(t, s))
}

func mustLoad(t *testing.T, s Store) *State {
	t.Helper()
	st, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return st
}

// TestFileStoreCorruption damages the on-disk files in various ways
// and asserts recovery keeps every record committed before the
// damage.
func TestFileStoreCorruption(t *testing.T) {
	// Count the journal frames so the damage cases can target exact
	// record boundaries.
	frameOffsets := func(data []byte) []int64 {
		var offs []int64
		off := 0
		for len(data)-off >= journalHeaderSize {
			n := int(binary.LittleEndian.Uint32(data[off : off+4]))
			offs = append(offs, int64(off))
			off += journalHeaderSize + n
		}
		return offs
	}

	cases := []struct {
		name string
		// damage mutates the state dir after a clean Close.
		damage func(t *testing.T, dir string)
		// check asserts on the post-recovery state. The fixture's last
		// three journal records are SetCounters, PutRecording(4),
		// PutRecording(5)+DeleteRecording(5); damage cases that chop the
		// tail lose those and nothing else.
		check func(t *testing.T, st *State)
	}{
		{
			name: "truncate-journal-mid-record",
			damage: func(t *testing.T, dir string) {
				p := filepath.Join(dir, journalFile)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				offs := frameOffsets(data)
				// Cut into the middle of the last record's payload.
				cut := offs[len(offs)-1] + journalHeaderSize + 2
				if err := os.Truncate(p, cut); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, st *State) {
				// Last record was DeleteRecording(5) — lost, so group 5
				// reappears; everything before survives.
				if len(st.Recordings) != 2 {
					t.Fatalf("recordings = %+v, want groups 4 and 5", st.Recordings)
				}
				if len(st.Contents) != 2 || st.Contents[0].Info.Name != "movie" {
					t.Fatalf("contents = %+v", st.Contents)
				}
			},
		},
		{
			name: "truncate-journal-mid-header",
			damage: func(t *testing.T, dir string) {
				p := filepath.Join(dir, journalFile)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				offs := frameOffsets(data)
				if err := os.Truncate(p, offs[len(offs)-1]+3); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, st *State) {
				if len(st.Recordings) != 2 {
					t.Fatalf("recordings = %+v, want groups 4 and 5", st.Recordings)
				}
			},
		},
		{
			name: "flip-crc-bytes",
			damage: func(t *testing.T, dir string) {
				p := filepath.Join(dir, journalFile)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				offs := frameOffsets(data)
				// Corrupt the CRC of the third-from-last record
				// (SetCounters): it and everything after must be discarded.
				off := offs[len(offs)-4]
				data[off+4] ^= 0xff
				data[off+5] ^= 0xff
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, st *State) {
				if st.Counters != (Counters{}) {
					t.Errorf("counters = %+v, want zero (SetCounters record was damaged)", st.Counters)
				}
				if len(st.Recordings) != 0 {
					t.Errorf("recordings = %+v, want none (after damage point)", st.Recordings)
				}
				// Records before the damage survive in full.
				if len(st.Contents) != 2 || len(st.Types) != 2 {
					t.Errorf("contents=%d types=%d, want 2/2", len(st.Contents), len(st.Types))
				}
			},
		},
		{
			name: "flip-payload-byte",
			damage: func(t *testing.T, dir string) {
				p := filepath.Join(dir, journalFile)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				offs := frameOffsets(data)
				data[offs[len(offs)-1]+journalHeaderSize] ^= 0x01
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			check: func(t *testing.T, st *State) {
				if len(st.Recordings) != 2 {
					t.Fatalf("recordings = %+v, want groups 4 and 5 (DeleteRecording damaged)", st.Recordings)
				}
			},
		},
		{
			name: "delete-snapshot",
			// With no compaction the snapshot never existed; deleting it is
			// a no-op and the journal alone must rebuild everything. (After
			// a compaction the snapshot IS the data — losing it then is
			// unrecoverable by design.)
			damage: func(t *testing.T, dir string) {
				err := os.Remove(filepath.Join(dir, snapshotFile))
				if err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
			},
			check: checkFixture,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, -1)
			applyFixture(t, s)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			tc.damage(t, dir)
			s2 := openTest(t, dir, -1)
			defer s2.Close() //nolint:errcheck // test teardown
			tc.check(t, mustLoad(t, s2))

			// Recovery must leave the store appendable: a new mutation and
			// another reopen round-trips.
			if err := s2.Apply(PutContent(testContent("post-repair"))); err != nil {
				t.Fatalf("Apply after repair: %v", err)
			}
			if err := s2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s3 := openTest(t, dir, -1)
			defer s3.Close() //nolint:errcheck // test teardown
			st := mustLoad(t, s3)
			found := false
			for _, rec := range st.Contents {
				if rec.Info.Name == "post-repair" {
					found = true
				}
			}
			if !found {
				t.Fatal("record appended after tail repair did not survive reopen")
			}
		})
	}
}

func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, -1)
	applyFixture(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupt snapshot is not silently skipped — that would resurrect
	// deleted content and regress counters. Refuse to start.
	if _, err := Open(Options{Dir: dir, Now: func() time.Time { return fixedNow }}); err == nil {
		t.Fatal("Open should fail on a corrupt snapshot")
	}
}

func TestJournalRejectsOversizeLength(t *testing.T) {
	// A corrupted length field must not drive a huge allocation.
	var hdr [journalHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(maxRecordSize+1))
	st := newTables()
	good, records := replayJournal(hdr[:], st)
	if good != 0 || records != 0 {
		t.Fatalf("replay = (%d, %d), want (0, 0)", good, records)
	}
}
