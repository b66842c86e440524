package msufs

import (
	"bytes"
	"sync"
	"testing"

	"calliope/internal/blockdev"
	"calliope/internal/units"
)

func testStripeSet(t *testing.T, n int) *StripeSet {
	t.Helper()
	vols := make([]*Volume, n)
	for i := range vols {
		dev, err := blockdev.NewMem(4 * int64(units.MB))
		if err != nil {
			t.Fatal(err)
		}
		v, err := Format(dev, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		vols[i] = v
	}
	s, err := NewStripeSet(vols...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStripeRoundRobinPlacement(t *testing.T) {
	s := testStripeSet(t, 3)
	f, err := s.Create("striped", 6*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := f.WriteBlock(i, bytes.Repeat([]byte{byte(i)}, 64*1024)); err != nil {
			t.Fatalf("WriteBlock(%d): %v", i, err)
		}
	}
	// Each underlying volume holds exactly 2 blocks of the file.
	for i, v := range s.vols {
		st, err := v.Stat("striped")
		if err != nil {
			t.Fatalf("volume %d stat: %v", i, err)
		}
		if st.Blocks != 2 {
			t.Errorf("volume %d holds %d blocks, want 2", i, st.Blocks)
		}
	}
	// Round trip.
	for i := int64(0); i < 6; i++ {
		got := make([]byte, 64*1024)
		if err := f.ReadBlock(i, got); err != nil {
			t.Fatalf("ReadBlock(%d): %v", i, err)
		}
		if got[0] != byte(i) {
			t.Errorf("block %d payload = %d", i, got[0])
		}
	}
}

func TestStripeCommitAndReopen(t *testing.T) {
	s := testStripeSet(t, 2)
	f, err := s.Create("movie", 10*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteBlock(0, make([]byte, 64*1024))
	f.WriteBlock(1, make([]byte, 321))
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	g, err := s.Open("movie")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 64*1024+321 {
		t.Fatalf("Size after reopen = %d", g.Size())
	}
	if g.BlockLen(1) != 321 {
		t.Fatalf("BlockLen(1) = %d", g.BlockLen(1))
	}
	if g.BlockLen(2) != 0 {
		t.Fatalf("BlockLen(2) = %d", g.BlockLen(2))
	}
}

// TestStripeSizeConcurrent is the regression test for the StripedFile
// size data race: a recorder growing the file while players read its
// size and block lengths. Run under -race (make race), the old plain
// int64 field trips the detector; the atomic CAS-max must also never
// let an observed size shrink.
func TestStripeSizeConcurrent(t *testing.T) {
	const blocks = 64
	s := testStripeSet(t, 2)
	f, err := s.Create("live", blocks*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ { // concurrent readers polling size state
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				size := f.Size()
				if size < last {
					t.Errorf("observed size shrink: %d after %d", size, last)
					return
				}
				last = size
				f.BlockLen(size / (64 * 1024))
			}
		}()
	}
	payload := make([]byte, 64*1024) // recorder appending blocks
	for i := int64(0); i < blocks; i++ {
		if err := f.WriteBlock(i, payload); err != nil {
			t.Fatalf("WriteBlock(%d): %v", i, err)
		}
	}
	close(stop)
	readers.Wait()
	if got, want := f.Size(), int64(blocks*64*1024); got != want {
		t.Fatalf("final size %d, want %d", got, want)
	}
}

// TestStripeLocate verifies logical blocks map to the round-robin
// member volume and a sane device offset.
func TestStripeLocate(t *testing.T) {
	s := testStripeSet(t, 3)
	f, err := s.Create("placed", 6*64*1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := f.WriteBlock(i, bytes.Repeat([]byte{byte(i + 1)}, 64*1024)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 6; i++ {
		vol, off, err := f.Locate(i)
		if err != nil {
			t.Fatalf("Locate(%d): %v", i, err)
		}
		if want := s.vols[i%3]; vol != want {
			t.Errorf("Locate(%d) volume = %p, want member %d", i, vol, i%3)
		}
		// The located offset must read back exactly the block's bytes.
		got := make([]byte, 64*1024)
		if err := vol.Device().ReadAt(got, off); err != nil {
			t.Fatalf("device read at Locate(%d): %v", i, err)
		}
		if got[0] != byte(i+1) || got[64*1024-1] != byte(i+1) {
			t.Errorf("Locate(%d) offset %d reads payload %d..%d, want %d", i, off, got[0], got[64*1024-1], i+1)
		}
	}
	if _, _, err := f.Locate(-1); err == nil {
		t.Error("Locate(-1) succeeded")
	}
}

func TestStripeCreateRollsBackOnFailure(t *testing.T) {
	// Second volume too small for its share: the create must fail and
	// leave no residue on the first volume.
	devA, _ := blockdev.NewMem(4 * int64(units.MB))
	volA, _ := Format(devA, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	devB, _ := blockdev.NewMem(512 * 1024)
	volB, _ := Format(devB, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	s, err := NewStripeSet(volA, volB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("big", 3*int64(units.MB), nil); err == nil {
		t.Fatal("oversized striped create succeeded")
	}
	if len(volA.List()) != 0 {
		t.Fatalf("rollback left residue: %v", volA.List())
	}
}

func TestStripeSetValidation(t *testing.T) {
	if _, err := NewStripeSet(); err == nil {
		t.Error("empty stripe set accepted")
	}
	devA, _ := blockdev.NewMem(4 * int64(units.MB))
	volA, _ := Format(devA, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	devB, _ := blockdev.NewMem(4 * int64(units.MB))
	volB, _ := Format(devB, Options{BlockSize: 128 * 1024, MetaSize: 256 * 1024})
	if _, err := NewStripeSet(volA, volB); err == nil {
		t.Error("mismatched block sizes accepted")
	}
}

func TestStripeRemove(t *testing.T) {
	s := testStripeSet(t, 2)
	if _, err := s.Create("gone", 2*64*1024, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	for i, v := range s.vols {
		if len(v.List()) != 0 {
			t.Errorf("volume %d still has files after remove", i)
		}
	}
	if err := s.Remove("gone"); err == nil {
		t.Error("double remove succeeded")
	}
}
