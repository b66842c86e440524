package msufs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"calliope/internal/blockdev"
	"calliope/internal/units"
)

func newVolumeStore(t *testing.T) Store {
	t.Helper()
	dev, err := blockdev.NewMem(8 * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Format(dev, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(v)
}

func newStripedStoreN(t *testing.T, n int) Store {
	t.Helper()
	vols := make([]*Volume, n)
	for i := range vols {
		dev, err := blockdev.NewMem(8 * int64(units.MB))
		if err != nil {
			t.Fatal(err)
		}
		v, err := Format(dev, Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		vols[i] = v
	}
	set, err := NewStripeSet(vols...)
	if err != nil {
		t.Fatal(err)
	}
	return NewStripedStore(set)
}

func TestStoreWidths(t *testing.T) {
	if w := newVolumeStore(t).Width(); w != 1 {
		t.Errorf("volume store width = %d", w)
	}
	if w := newStripedStoreN(t, 3).Width(); w != 3 {
		t.Errorf("striped store width = %d", w)
	}
}

func TestStripedStoreAggregates(t *testing.T) {
	single := newVolumeStore(t)
	striped := newStripedStoreN(t, 3)
	if striped.TotalBlocks() != 3*single.TotalBlocks() {
		t.Errorf("TotalBlocks: %d vs 3×%d", striped.TotalBlocks(), single.TotalBlocks())
	}
	if striped.FreeBlocks() != 3*single.FreeBlocks() {
		t.Errorf("FreeBlocks: %d vs 3×%d", striped.FreeBlocks(), single.FreeBlocks())
	}
	if striped.BlockSize() != single.BlockSize() {
		t.Errorf("BlockSize differs")
	}
}

// TestStoreEquivalenceProperty drives the same random operation
// sequence against a single-volume store and a 3-disk striped store;
// every observable result (errors aside from space limits, data read
// back, sizes, attributes, listings) must match. This is the contract
// that lets the MSU serve either layout with the same code.
func TestStoreEquivalenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		a := newVolumeStore(t)
		b := newStripedStoreN(t, 3)
		filesA := map[string]StoreFile{}
		filesB := map[string]StoreFile{}
		written := map[string]map[int64]bool{}
		seq := 0
		for _, op := range ops {
			switch op % 5 {
			case 0: // create
				name := fmt.Sprintf("f%d", seq)
				seq++
				reserve := int64(op%5) * 64 * 1024
				fa, errA := a.Create(name, reserve, map[string]string{"n": name})
				fb, errB := b.Create(name, reserve, map[string]string{"n": name})
				if (errA == nil) != (errB == nil) {
					return false
				}
				if errA == nil {
					filesA[name], filesB[name] = fa, fb
					written[name] = map[int64]bool{}
				}
			case 1: // write the same block to both
				for name := range filesA {
					blk := int64(op % 6)
					payload := bytes.Repeat([]byte{byte(op)}, int(op%3000)+1)
					errA := filesA[name].WriteBlock(blk, payload)
					errB := filesB[name].WriteBlock(blk, payload)
					if (errA == nil) != (errB == nil) {
						return false
					}
					if errA == nil {
						written[name][blk] = true
					}
					break
				}
			case 2: // read back a written block and compare. Blocks that
				// were never written may be allocated in one layout and
				// not the other (striping rounds the reservation per
				// member disk), so only written data carries a contract.
				for name := range filesA {
					for blk := range written[name] {
						bufA := make([]byte, 512)
						bufB := make([]byte, 512)
						if err := filesA[name].ReadBlock(blk, bufA); err != nil {
							return false
						}
						if err := filesB[name].ReadBlock(blk, bufB); err != nil {
							return false
						}
						if !bytes.Equal(bufA, bufB) {
							return false
						}
						break
					}
					break
				}
			case 3: // commit
				for name := range filesA {
					errA := filesA[name].Commit()
					errB := filesB[name].Commit()
					if (errA == nil) != (errB == nil) {
						return false
					}
					if filesA[name].Size() != filesB[name].Size() {
						return false
					}
					break
				}
			case 4: // stat + attr
				for name := range filesA {
					stA, errA := a.Stat(name)
					stB, errB := b.Stat(name)
					if (errA == nil) != (errB == nil) {
						return false
					}
					if errA == nil {
						if stA.Attrs["n"] != stB.Attrs["n"] {
							return false
						}
					}
					break
				}
			}
		}
		// Listings agree on names and sizes.
		la, lb := a.List(), b.List()
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			if la[i].Name != lb[i].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStripedStoreRemoveAndList(t *testing.T) {
	s := newStripedStoreN(t, 2)
	if _, err := s.Create("a", 2*64*1024, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	l := s.List()
	if len(l) != 1 || l[0].Name != "a" || l[0].Attrs["k"] != "v" {
		t.Fatalf("List = %+v", l)
	}
	if err := s.SetAttrs("a", map[string]string{"k2": "v2"}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stat("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Attrs["k2"] != "v2" {
		t.Fatalf("Stat attrs = %v", st.Attrs)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if len(s.List()) != 0 {
		t.Fatal("file survived remove")
	}
}

// TestStripedStoreListsHalfMadeFiles: a striped create or remove cut
// short between members leaves a name on some volumes only. List shows
// it — bare, so no rule takes it for content, whatever the part on the
// anchor claims — and Remove gives back the blocks it holds.
func TestStripedStoreListsHalfMadeFiles(t *testing.T) {
	s := newStripedStoreN(t, 2)
	vols := s.(stripeStore).s.vols
	f, err := s.Create("whole", 2*64*1024, map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	free := s.FreeBlocks()
	head, err := vols[0].Create("head", 2*64*1024, map[string]string{"type": "mpeg1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := head.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := vols[1].Create("tail", 2*64*1024, nil); err != nil {
		t.Fatal(err)
	}

	l := s.List()
	if len(l) != 3 || l[0].Name != "head" || l[1].Name != "tail" || l[2].Name != "whole" {
		t.Fatalf("List = %+v, want head, tail and whole", l)
	}
	for _, fi := range l[:2] {
		if fi.Committed || len(fi.Attrs) != 0 {
			t.Errorf("half-made %q listed as %+v, want it uncommitted and without attributes", fi.Name, fi)
		}
	}
	if !l[2].Committed || l[2].Attrs["k"] != "v" {
		t.Errorf("whole file listed as %+v", l[2])
	}
	for _, name := range []string{"head", "tail"} {
		if err := s.Remove(name); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	if got := s.FreeBlocks(); got != free || len(s.List()) != 1 {
		t.Fatalf("%d free blocks and %d files after removing the halves, want %d and 1", got, len(s.List()), free)
	}
}
