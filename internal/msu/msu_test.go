package msu

import (
	"strings"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

func testVolume(t *testing.T) msufs.Store {
	t.Helper()
	dev, err := blockdev.NewMem(32 * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	vol, err := msufs.Format(dev, msufs.Options{BlockSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return msufs.NewStore(vol)
}

// rawVolume is testVolume without the store wrapper, for MSU configs.
func rawVolume(t *testing.T) *msufs.Volume {
	t.Helper()
	dev, err := blockdev.NewMem(32 * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	vol, err := msufs.Format(dev, msufs.Options{BlockSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return vol
}

func testStream(t *testing.T, dur time.Duration) []media.Packet {
	t.Helper()
	pkts, err := media.GenerateCBR(media.CBRConfig{
		Rate: 1500 * units.Kbps, PacketSize: 1024, FPS: 30, GOP: 15, Duration: dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

func TestIngestReadBackRoundTrip(t *testing.T) {
	vol := testVolume(t)
	src := testStream(t, time.Second)
	if err := Ingest(vol, "movie", "mpeg1", src); err != nil {
		t.Fatal(err)
	}
	st, err := vol.Stat("movie")
	if err != nil {
		t.Fatal(err)
	}
	if st.Attrs[AttrType] != "mpeg1" {
		t.Errorf("type attr = %q", st.Attrs[AttrType])
	}
	if st.Attrs[AttrTree] == "" || st.Attrs[AttrLength] == "" {
		t.Error("tree/length attrs missing")
	}
	if !st.Committed {
		t.Error("ingested file not committed")
	}

	got, err := ReadBack(vol, "movie")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) {
		t.Fatalf("ReadBack %d packets, want %d", len(got), len(src))
	}
	for i := range got {
		if got[i].Time != src[i].Time || string(got[i].Payload) != string(src[i].Payload) {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestIngestEmpty(t *testing.T) {
	vol := testVolume(t)
	if err := Ingest(vol, "x", "mpeg1", nil); err == nil {
		t.Fatal("empty ingest accepted")
	}
	if len(vol.List()) != 0 {
		t.Fatal("residue after failed ingest")
	}
}

func TestIngestDuplicate(t *testing.T) {
	vol := testVolume(t)
	src := testStream(t, 200*time.Millisecond)
	if err := Ingest(vol, "movie", "mpeg1", src); err != nil {
		t.Fatal(err)
	}
	if err := Ingest(vol, "movie", "mpeg1", src); err == nil {
		t.Fatal("duplicate ingest accepted")
	}
}

func TestIngestFastLinksCompanions(t *testing.T) {
	vol := testVolume(t)
	src := testStream(t, 2*time.Second) // 60 frames
	if err := Ingest(vol, "movie", "mpeg1", src); err != nil {
		t.Fatal(err)
	}
	if err := IngestFast(vol, "movie", "mpeg1", src, 15); err != nil {
		t.Fatal(err)
	}
	st, _ := vol.Stat("movie")
	if st.Attrs[AttrFastFwd] != "movie.ff" || st.Attrs[AttrFastBack] != "movie.fb" {
		t.Fatalf("links = %q %q", st.Attrs[AttrFastFwd], st.Attrs[AttrFastBack])
	}
	if st.Attrs[AttrEvery] != "15" {
		t.Fatalf("every = %q", st.Attrs[AttrEvery])
	}
	for _, name := range []string{"movie.ff", "movie.fb"} {
		cst, err := vol.Stat(name)
		if err != nil {
			t.Fatalf("companion %s: %v", name, err)
		}
		if cst.Attrs[AttrFastRole] == "" {
			t.Errorf("%s lacks fast-role attr", name)
		}
	}
	// Companion content is the filtered stream: 60/15 = 4 frames.
	ff, err := ReadBack(vol, "movie.ff")
	if err != nil {
		t.Fatal(err)
	}
	frames := map[uint32]bool{}
	for _, p := range ff {
		h, err := media.ParseHeader(p.Payload)
		if err != nil {
			t.Fatal(err)
		}
		frames[h.Frame] = true
	}
	if len(frames) != 4 {
		t.Fatalf("filtered frames = %d, want 4", len(frames))
	}
}

func TestIngestFastUnknownContent(t *testing.T) {
	vol := testVolume(t)
	src := testStream(t, time.Second)
	if err := IngestFast(vol, "ghost", "mpeg1", src, 15); err == nil {
		t.Fatal("fast companions for unknown content accepted")
	}
}

func TestReadBackMissing(t *testing.T) {
	vol := testVolume(t)
	if _, err := ReadBack(vol, "ghost"); err == nil {
		t.Fatal("ReadBack of missing content succeeded")
	}
	// Content without tree metadata is rejected.
	f, err := vol.Create("raw", 1024, map[string]string{AttrType: "mpeg1"})
	if err != nil {
		t.Fatal(err)
	}
	f.WriteBlock(0, []byte("junk")) //nolint:errcheck
	if _, err := ReadBack(vol, "raw"); err == nil || !strings.Contains(err.Error(), "ibtree") {
		t.Fatalf("missing tree metadata: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	vol := rawVolume(t)
	cases := []Config{
		{Coordinator: "x", Volumes: []*msufs.Volume{vol}}, // no ID
		{ID: "m", Volumes: []*msufs.Volume{vol}},          // no coordinator
		{ID: "m", Coordinator: "x"},                       // no volumes
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	m, err := New(Config{ID: "m", Coordinator: "127.0.0.1:1", Volumes: []*msufs.Volume{vol}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck
	if m.cfg.Host == "" || m.cfg.ReconnectInterval <= 0 {
		t.Error("defaults not applied")
	}
	// Start against a dead coordinator fails cleanly.
	if err := m.Start(); err == nil {
		t.Error("start against dead coordinator succeeded")
	}
}

func TestBuildHelloSkipsCompanions(t *testing.T) {
	rvol := rawVolume(t)
	vol := msufs.NewStore(rvol)
	src := testStream(t, time.Second)
	if err := Ingest(vol, "movie", "mpeg1", src); err != nil {
		t.Fatal(err)
	}
	if err := IngestFast(vol, "movie", "mpeg1", src, 15); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{ID: "m", Coordinator: "127.0.0.1:1", Volumes: []*msufs.Volume{rvol}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck
	hello := m.buildHello()
	if len(hello.Disks) != 1 {
		t.Fatalf("disks = %d", len(hello.Disks))
	}
	decls := hello.Disks[0].Contents
	if len(decls) != 1 || decls[0].Name != "movie" {
		t.Fatalf("content decls = %+v (companions must be hidden)", decls)
	}
	if !decls[0].HasFast {
		t.Error("HasFast not set")
	}
	if decls[0].Length <= 0 {
		t.Error("length missing")
	}
}
