package ibtree

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

const fuzzPageSize = 1024

// FuzzAttachPage feeds arbitrary bytes to the page parser the delivery
// path trusts with memory a disk or a cache filled: as page 0 of a real
// tree, once through AttachPage (the cache-hit path) and once through
// LoadPage (the disk path). Either the page is refused — a wrong
// length, a bad magic, ErrCorrupt from Next — or every span it yields
// lies inside the buffer, both paths yield the same spans, and the walk
// ends within the page's length; never a panic or a spin.
func FuzzAttachPage(f *testing.F) {
	built := newMemFile(fuzzPageSize)
	meta := buildTree(f, built, fuzzPageSize, 4, 200, time.Millisecond, 40)
	good := built.blocks[0]
	flipped := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(flipped[pageHdrLen+4:], 1<<31) // the first packet's length field
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		file := newMemFile(fuzzPageSize)
		for i, blk := range built.blocks {
			file.blocks[i] = blk
		}
		tree, err := Open(file, fuzzPageSize, meta)
		if err != nil {
			t.Fatal(err)
		}
		attach, err := tree.PageCursorAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != fuzzPageSize {
			if ok, err := attach.AttachPage(data); ok || err == nil {
				t.Fatalf("AttachPage took a %d-byte buffer for a %d-byte page", len(data), fuzzPageSize)
			}
		}
		// The same bytes as a whole page: cut or zero-filled to size.
		page := make([]byte, fuzzPageSize)
		copy(page, data)
		file.blocks[0] = page
		load, err := tree.PageCursorAt(0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, fuzzPageSize)
		lok, lerr := load.LoadPage(buf)
		aok, aerr := attach.AttachPage(page)
		if lok != aok || (lerr == nil) != (aerr == nil) {
			t.Fatalf("LoadPage = %v, %v but AttachPage = %v, %v", lok, lerr, aok, aerr)
		}
		if lerr != nil {
			if !errors.Is(lerr, ErrCorrupt) || !errors.Is(aerr, ErrCorrupt) {
				t.Fatalf("a page was refused with %v / %v, want ErrCorrupt", lerr, aerr)
			}
			return
		}
		for steps := 0; ; steps++ {
			if steps > fuzzPageSize {
				t.Fatalf("%d spans from a %d-byte page: the cursor is not advancing", steps, fuzzPageSize)
			}
			ls, lok, lerr := load.Next()
			as, aok, aerr := attach.Next()
			if ls != as || lok != aok || (lerr == nil) != (aerr == nil) {
				t.Fatalf("Next diverged: %+v, %v, %v after LoadPage, %+v, %v, %v after AttachPage", ls, lok, lerr, as, aok, aerr)
			}
			if lerr != nil {
				if !errors.Is(lerr, ErrCorrupt) {
					t.Fatalf("Next = %v, want ErrCorrupt", lerr)
				}
				return
			}
			if !lok {
				return
			}
			if ls.Start < pageHdrLen+packetHdrLen || ls.Len < 0 || ls.Start+ls.Len > fuzzPageSize {
				t.Fatalf("span %+v lies outside the %d-byte page", ls, fuzzPageSize)
			}
		}
	})
}
