package ibtree

import (
	"math/rand"
	"testing"
	"time"
)

// TestRandomCorruptionNeverPanics: flipping arbitrary bytes in the
// stored pages must surface as errors (or silently altered payloads),
// never as panics or hangs — a server keeps running when a disk rots.
func TestRandomCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		f := newMemFile(2048)
		b, err := NewBuilder(f, 2048, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			payload := make([]byte, 40)
			if err := b.Append(Packet{Time: time.Duration(i) * time.Millisecond, Payload: payload}); err != nil {
				t.Fatal(err)
			}
		}
		meta, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt a handful of random bytes across random pages.
		for k := 0; k < 8; k++ {
			page := rng.Int63n(meta.Pages)
			blk := f.blocks[page]
			blk[rng.Intn(len(blk))] ^= byte(1 + rng.Intn(255))
		}
		tree, err := Open(f, 2048, meta)
		if err != nil {
			continue // rejected at open: fine
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic during scan: %v", trial, r)
				}
			}()
			scan(tree.PageCursorAt(0)) //nolint:errcheck // an error is a fine outcome; a panic or a hang is not
			// Seeks over corrupt trees must also stay contained.
			for _, probe := range []time.Duration{0, 100 * time.Millisecond, time.Second} {
				scan(tree.SeekTime(probe)) //nolint:errcheck
			}
		}()
	}
}

// TestTruncatedMetaRejected: metadata describing more pages than the
// file holds errors instead of reading junk.
func TestTruncatedMetaRejected(t *testing.T) {
	f := newMemFile(2048)
	meta := buildTree(t, f, 2048, 4, 100, time.Millisecond, 32)
	// Drop the last page from the backing store.
	delete(f.blocks, meta.Pages-1)
	tree, err := Open(f, 2048, meta)
	if err != nil {
		return
	}
	if _, err := scan(tree.PageCursorAt(0)); err == nil {
		t.Fatal("truncated store scanned to a clean EOF")
	}
}
