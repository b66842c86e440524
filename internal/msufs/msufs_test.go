package msufs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"calliope/internal/blockdev"
	"calliope/internal/faultinject"
	"calliope/internal/units"
)

// testVolume formats a small in-memory volume with 64 KB blocks.
func testVolume(t *testing.T, sizeMB int64) *Volume {
	t.Helper()
	dev, err := blockdev.NewMem(sizeMB * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(dev, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFormatAndGeometry(t *testing.T) {
	v := testVolume(t, 8)
	if v.BlockSize() != 64*1024 {
		t.Fatalf("BlockSize = %d", v.BlockSize())
	}
	// 8 MB - 256 KB metadata = 7.75 MB / 64 KB = 124 blocks.
	if v.TotalBlocks() != 124 {
		t.Fatalf("TotalBlocks = %d, want 124", v.TotalBlocks())
	}
	if v.FreeBlocks() != 124 {
		t.Fatalf("FreeBlocks = %d, want 124", v.FreeBlocks())
	}
}

func TestFormatRejectsBadGeometry(t *testing.T) {
	dev, _ := blockdev.NewMem(int64(units.MB))
	if _, err := Format(dev, Options{BlockSize: 1024}); err == nil {
		t.Error("tiny block size accepted")
	}
	small, _ := blockdev.NewMem(4096)
	if _, err := Format(small, Options{BlockSize: 4096, MetaSize: 4096}); err == nil {
		t.Error("device with no room for data accepted")
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	v := testVolume(t, 8)
	f, err := v.Create("movie", 3*64*1024, map[string]string{"type": "mpeg1"})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, 3)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 64*1024)
		if err := f.WriteBlock(int64(i), blocks[i]); err != nil {
			t.Fatalf("WriteBlock(%d): %v", i, err)
		}
	}
	for i := range blocks {
		got := make([]byte, 64*1024)
		if err := f.ReadBlock(int64(i), got); err != nil {
			t.Fatalf("ReadBlock(%d): %v", i, err)
		}
		if !bytes.Equal(got, blocks[i]) {
			t.Fatalf("block %d mismatch", i)
		}
	}
	if f.Size() != 3*64*1024 {
		t.Fatalf("Size = %d", f.Size())
	}
	if got := f.Attrs()["type"]; got != "mpeg1" {
		t.Fatalf("attr type = %q", got)
	}
}

func TestBlockLenPartialFinal(t *testing.T) {
	v := testVolume(t, 8)
	f, _ := v.Create("short", 0, nil)
	if err := f.WriteBlock(0, make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlock(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if got := f.BlockLen(0); got != 64*1024 {
		t.Fatalf("BlockLen(0) = %d", got)
	}
	if got := f.BlockLen(1); got != 100 {
		t.Fatalf("BlockLen(1) = %d", got)
	}
	if got := f.BlockLen(2); got != 0 {
		t.Fatalf("BlockLen(2) = %d", got)
	}
}

func TestCommitTrimsReservation(t *testing.T) {
	v := testVolume(t, 8)
	free0 := v.FreeBlocks()
	// Client over-estimates a recording at 50 blocks but writes 5.
	f, err := v.Create("rec", 50*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.FreeBlocks() != free0-50 {
		t.Fatalf("reservation not charged: free=%d", v.FreeBlocks())
	}
	for i := int64(0); i < 5; i++ {
		if err := f.WriteBlock(i, make([]byte, 64*1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if v.FreeBlocks() != free0-5 {
		t.Fatalf("overestimate not reclaimed: free=%d, want %d", v.FreeBlocks(), free0-5)
	}
	// Committed files are read-only.
	if err := f.WriteBlock(5, make([]byte, 10)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after commit: %v", err)
	}
	// Data still readable.
	if err := f.ReadBlock(4, make([]byte, 64*1024)); err != nil {
		t.Fatalf("read after commit: %v", err)
	}
}

func TestGrowBeyondReservation(t *testing.T) {
	v := testVolume(t, 8)
	f, _ := v.Create("grow", 64*1024, nil) // 1 block reserved
	for i := int64(0); i < 4; i++ {
		if err := f.WriteBlock(i, make([]byte, 64*1024)); err != nil {
			t.Fatalf("WriteBlock(%d): %v", i, err)
		}
	}
	if f.Blocks() != 4 {
		t.Fatalf("Blocks = %d, want 4", f.Blocks())
	}
}

func TestOutOfSpace(t *testing.T) {
	v := testVolume(t, 8)
	total := v.TotalBlocks()
	if _, err := v.Create("huge", (total+1)*64*1024, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized create: %v", err)
	}
	// Fill it exactly, then one more block fails.
	f, err := v.Create("exact", total*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlock(total, make([]byte, 10)); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("grow past device: %v", err)
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	v := testVolume(t, 8)
	free0 := v.FreeBlocks()
	_, err := v.Create("a", 10*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if v.FreeBlocks() != free0 {
		t.Fatalf("free after remove = %d, want %d", v.FreeBlocks(), free0)
	}
	if err := v.Remove("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestDuplicateCreate(t *testing.T) {
	v := testVolume(t, 8)
	if _, err := v.Create("x", 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("x", 0, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := v.Create("", 0, nil); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestMountRecoversState(t *testing.T) {
	dev, _ := blockdev.NewMem(8 * int64(units.MB))
	v, err := Format(dev, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.Create("survivor", 2*64*1024, map[string]string{"k": "v"})
	payload := bytes.Repeat([]byte{0xAA}, 64*1024)
	f.WriteBlock(0, payload)
	f.WriteBlock(1, payload[:500])
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	freeBefore := v.FreeBlocks()

	// Remount from the same device.
	v2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if v2.BlockSize() != 64*1024 {
		t.Fatalf("BlockSize after mount = %d", v2.BlockSize())
	}
	if v2.FreeBlocks() != freeBefore {
		t.Fatalf("FreeBlocks after mount = %d, want %d", v2.FreeBlocks(), freeBefore)
	}
	f2, err := v2.Open("survivor")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != 64*1024+500 {
		t.Fatalf("Size after mount = %d", f2.Size())
	}
	got := make([]byte, 64*1024)
	if err := f2.ReadBlock(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted across mount")
	}
	if f2.Attrs()["k"] != "v" {
		t.Fatal("attrs lost across mount")
	}
}

func TestMountRejectsUnformatted(t *testing.T) {
	dev, _ := blockdev.NewMem(int64(units.MB))
	if _, err := Mount(dev); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("mount of unformatted device: %v", err)
	}
}

func TestSetAttr(t *testing.T) {
	v := testVolume(t, 8)
	v.Create("f", 0, map[string]string{"kept": "k", "fastfwd": "old"}) //nolint:errcheck
	if err := v.SetAttrs("f", map[string]string{"fastfwd": "f.ff", "fastback": "f.fb"}); err != nil {
		t.Fatal(err)
	}
	st, err := v.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Attrs["fastfwd"] != "f.ff" || st.Attrs["fastback"] != "f.fb" || st.Attrs["kept"] != "k" {
		t.Fatalf("attr = %v", st.Attrs)
	}
	if err := v.SetAttrs("missing", map[string]string{"k": "v"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetAttrs on missing file: %v", err)
	}
}

// TestSetAttrsIsOneWriteAndAllOrNothing: however many attributes, the
// device sees one metadata write; when that write fails the file's
// attributes are what they were, in RAM and on a fresh mount.
func TestSetAttrsIsOneWriteAndAllOrNothing(t *testing.T) {
	mem, _ := blockdev.NewMem(8 * 64 * 1024)
	counting := blockdev.NewCounting(mem)
	dev, err := faultinject.NewDevice(counting, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(dev, Options{BlockSize: 64 * 1024, MetaSize: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Create("f", 0, map[string]string{"a": "1"}); err != nil {
		t.Fatal(err)
	}
	before := counting.Stats().Writes
	if err := v.SetAttrs("f", map[string]string{"b": "2", "c": "3", "d": "4"}); err != nil {
		t.Fatal(err)
	}
	if n := counting.Stats().Writes - before; n != 1 {
		t.Fatalf("three attributes took %d device writes, want 1", n)
	}
	dev.FailWrites(0, 8) // the whole device
	if err := v.SetAttrs("f", map[string]string{"a": "changed", "e": "5"}); err == nil {
		t.Fatal("SetAttrs succeeded on a device that refuses writes")
	}
	dev.Heal()
	remounted, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, vol := range []*Volume{v, remounted} {
		st, _ := vol.Stat("f")
		if len(st.Attrs) != 4 || st.Attrs["a"] != "1" || st.Attrs["e"] != "" {
			t.Fatalf("attributes after a failed write = %v", st.Attrs)
		}
	}
}

func TestList(t *testing.T) {
	v := testVolume(t, 8)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := v.Create(n, 64*1024, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := v.List()
	if len(got) != 3 || got[0].Name != "alpha" || got[1].Name != "mid" || got[2].Name != "zeta" {
		t.Fatalf("List = %+v", got)
	}
}

func TestFailedDeviceSurfacesError(t *testing.T) {
	dev, _ := blockdev.NewMem(8 * int64(units.MB))
	faulty, err := faultinject.NewDevice(dev, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	whole := dev.Size() / (64 * 1024)
	v, err := Format(faulty, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	f, err := v.Create("f", 64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty.FailWrites(0, whole)
	if err := f.WriteBlock(0, make([]byte, 100)); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("injected write fault not surfaced: %v", err)
	}
	faulty.Heal()
	if err := f.WriteBlock(0, make([]byte, 100)); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	faulty.FailReads(0, whole)
	if err := f.ReadBlock(0, make([]byte, 100)); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("injected read fault not surfaced: %v", err)
	}
}

func TestFragmentedAllocation(t *testing.T) {
	v := testVolume(t, 8)
	// Allocate three files, remove the middle one, then allocate a file
	// larger than any single free extent to force fragmentation.
	a, _ := v.Create("a", 40*64*1024, nil)
	b, _ := v.Create("b", 40*64*1024, nil)
	if _, err := v.Create("c", 40*64*1024, nil); err != nil {
		t.Fatal(err)
	}
	_ = a
	if err := v.Remove("b"); err != nil {
		t.Fatal(err)
	}
	_ = b
	// Free: 40-block hole + 4-block tail = 44. Ask for 44.
	f, err := v.Create("frag", 44*64*1024, nil)
	if err != nil {
		t.Fatalf("fragmented create: %v", err)
	}
	// All blocks must be addressable and hold data.
	for i := int64(0); i < 44; i++ {
		if err := f.WriteBlock(i, []byte{byte(i)}); err != nil {
			t.Fatalf("WriteBlock(%d): %v", i, err)
		}
	}
	got := make([]byte, 1)
	for i := int64(0); i < 44; i++ {
		if err := f.ReadBlock(i, got); err != nil {
			t.Fatalf("ReadBlock(%d): %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d = %d", i, got[0])
		}
	}
	if v.FreeBlocks() != 0 {
		t.Fatalf("FreeBlocks = %d, want 0", v.FreeBlocks())
	}
}

func TestComplementExtents(t *testing.T) {
	cases := []struct {
		used []Extent
		n    int64
		want []Extent
	}{
		{nil, 10, []Extent{{0, 10}}},
		{[]Extent{{0, 10}}, 10, nil},
		{[]Extent{{2, 3}}, 10, []Extent{{0, 2}, {5, 5}}},
		{[]Extent{{0, 2}, {8, 2}}, 10, []Extent{{2, 6}}},
		{[]Extent{{5, 5}, {0, 5}}, 10, nil}, // unsorted input
	}
	for i, c := range cases {
		got := complementExtents(c.used, c.n)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

// Property: any sequence of create/write/remove keeps the accounting
// identity: free + sum(allocated) == total, and all file data remains
// readable with the expected contents.
func TestAllocationAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		v := testVolume(t, 8)
		type tracked struct {
			f      *File
			writes map[int64]byte
		}
		files := map[string]*tracked{}
		seq := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // create
				name := fmt.Sprintf("f%d", seq)
				seq++
				fl, err := v.Create(name, int64(op%5)*64*1024, nil)
				if err != nil && !errors.Is(err, ErrNoSpace) {
					return false
				}
				if err == nil {
					files[name] = &tracked{f: fl, writes: map[int64]byte{}}
				}
			case 1: // write to a random live file
				for name, tr := range files {
					blk := int64(op % 7)
					err := tr.f.WriteBlock(blk, bytes.Repeat([]byte{op}, 128))
					if err != nil && !errors.Is(err, ErrNoSpace) {
						return false
					}
					if err == nil {
						tr.writes[blk] = op
					}
					_ = name
					break
				}
			case 2: // remove one
				for name := range files {
					if err := v.Remove(name); err != nil {
						return false
					}
					delete(files, name)
					break
				}
			}
		}
		// Accounting identity.
		var allocated int64
		for _, info := range v.List() {
			allocated += info.Blocks
		}
		if v.FreeBlocks()+allocated != v.TotalBlocks() {
			return false
		}
		// Data integrity.
		for _, tr := range files {
			for blk, val := range tr.writes {
				got := make([]byte, 128)
				if err := tr.f.ReadBlock(blk, got); err != nil {
					return false
				}
				if got[0] != val || got[127] != val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestUseAfterRemoveRejected: a stale File handle must not touch
// blocks that Remove returned to the pool (they may belong to a new
// file by now). Regression test for a double-free the Fsck property
// test uncovered.
func TestUseAfterRemoveRejected(t *testing.T) {
	v := testVolume(t, 8)
	f, err := v.Create("ghost", 3*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlock(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := v.Remove("ghost"); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteBlock(1, []byte("y")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("write after remove: %v", err)
	}
	if err := f.ReadBlock(0, make([]byte, 1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after remove: %v", err)
	}
	if err := f.Commit(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("commit after remove: %v", err)
	}
	if issues := v.Fsck(); len(issues) != 0 {
		t.Fatalf("volume corrupted: %v", issues)
	}
}

// TestZeroReservationCreatesNoExtents: a zero-byte reservation must
// not mint empty extents.
func TestZeroReservationCreatesNoExtents(t *testing.T) {
	v := testVolume(t, 8)
	f, err := v.Create("empty", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks() != 0 {
		t.Fatalf("Blocks = %d, want 0", f.Blocks())
	}
	if issues := v.Fsck(); len(issues) != 0 {
		t.Fatalf("issues: %v", issues)
	}
}

func BenchmarkVolumeWriteBlock(b *testing.B) {
	dev, _ := blockdev.NewMem(256 * int64(units.MB))
	v, err := Format(dev, Options{BlockSize: 64 * 1024})
	if err != nil {
		b.Fatal(err)
	}
	f, err := v.Create("bench", 200*int64(units.MB), nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	b.SetBytes(64 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteBlock(int64(i%3000), buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVolumeReadBlock(b *testing.B) {
	dev, _ := blockdev.NewMem(256 * int64(units.MB))
	v, _ := Format(dev, Options{BlockSize: 64 * 1024})
	f, _ := v.Create("bench", 200*int64(units.MB), nil)
	buf := make([]byte, 64*1024)
	for i := 0; i < 3000; i++ {
		f.WriteBlock(int64(i), buf) //nolint:errcheck
	}
	b.SetBytes(64 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.ReadBlock(int64(i%3000), buf); err != nil {
			b.Fatal(err)
		}
	}
}
