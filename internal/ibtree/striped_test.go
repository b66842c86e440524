package ibtree

import (
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// TestTreeOverStripedFile drives the IB-tree through msufs's striped
// layout (§2.3.3's future-work design): logical blocks land round-robin
// across volumes while the tree neither knows nor cares.
func TestTreeOverStripedFile(t *testing.T) {
	vols := make([]*msufs.Volume, 3)
	for i := range vols {
		dev, err := blockdev.NewMem(8 * int64(units.MB))
		if err != nil {
			t.Fatal(err)
		}
		v, err := msufs.Format(dev, msufs.Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		vols[i] = v
	}
	set, err := msufs.NewStripeSet(vols...)
	if err != nil {
		t.Fatal(err)
	}
	file, err := set.Create("striped-movie", 4*int64(units.MB), nil)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewBuilder(file, set.BlockSize(), 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	payload := make([]byte, 1024)
	for i := 0; i < n; i++ {
		payload[0], payload[1] = byte(i), byte(i>>8)
		if err := b.Append(Packet{Time: time.Duration(i) * 10 * time.Millisecond, Payload: payload}); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Commit(); err != nil {
		t.Fatal(err)
	}

	// The file genuinely striped: every volume holds a share.
	for i, v := range vols {
		st, err := v.Stat("striped-movie")
		if err != nil {
			t.Fatalf("volume %d: %v", i, err)
		}
		if st.Blocks == 0 {
			t.Errorf("volume %d holds no blocks", i)
		}
	}

	// Reopen through the stripe and verify scan + seeks.
	reopened, err := set.Open("striped-movie")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Open(reopened, set.BlockSize(), meta)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := scan(tree.PageCursorAt(0))
	if err != nil || len(pkts) != n {
		t.Fatalf("scan: %d packets, %v", len(pkts), err)
	}
	for i := range pkts {
		if got := pktIndex(&pkts[i]); got != i {
			t.Fatalf("packet %d carries %d", i, got)
		}
	}
	for _, probe := range []int{0, 777, 1999, 3999} {
		pkts, err := scan(tree.SeekTime(time.Duration(probe) * 10 * time.Millisecond))
		if err != nil || len(pkts) == 0 {
			t.Fatalf("seek %d: %d packets, %v", probe, len(pkts), err)
		}
		if got := pktIndex(&pkts[0]); got != probe {
			t.Fatalf("seek %d landed on %d", probe, got)
		}
	}
}
