package ibtree

import (
	"encoding/binary"
	"errors"
	"reflect"
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
//
// And once more head first, with an arbitrary valid mark: what AttachHead
// yields below the mark followed by what it yields once the mark is
// raised is the whole-page walk, span for span and refusal for refusal,
// and nothing yielded before the raise reaches past the mark — with the
// bytes above the mark wiped until then, so that a parser that looked
// there would walk something else.
func FuzzAttachPage(f *testing.F) {
	built := newMemFile(fuzzPageSize)
	meta := buildTree(f, built, fuzzPageSize, 4, 200, time.Millisecond, 40)
	good := built.blocks[0]
	flipped := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(flipped[pageHdrLen+4:], 1<<31) // the first packet's length field
	f.Add(good, uint16(fuzzPageSize/8))
	f.Add(good[:len(good)/2], uint16(pageHdrLen))
	f.Add(flipped, uint16(pageHdrLen+packetHdrLen+3))

	f.Fuzz(func(t *testing.T, data []byte, mark uint16) {
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
		// The head-first cursor walks a copy whose bytes above the mark are
		// not the page's until the mark is raised.
		valid := pageHdrLen + int(mark)%(fuzzPageSize-pageHdrLen+1)
		arriving := append([]byte(nil), page...)
		for i := valid; i < len(arriving); i++ {
			arriving[i] = ^page[i]
		}
		head, err := tree.PageCursorAt(0)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := head.AttachHead(arriving, valid); !ok || err != nil {
			t.Fatalf("AttachHead(%d) = %v, %v of a page AttachPage took", valid, ok, err)
		}
		raised := false
		for steps := 0; ; steps++ {
			if steps > fuzzPageSize {
				t.Fatalf("%d spans from a %d-byte page: the cursor is not advancing", steps, fuzzPageSize)
			}
			hs, hok, herr := head.Next()
			if herr == nil && !hok && head.Short() {
				if raised {
					t.Fatal("Next stopped short of a mark at the page's end")
				}
				raised = true
				copy(arriving[valid:], page[valid:])
				head.Raise(fuzzPageSize)
				hs, hok, herr = head.Next()
			}
			ls, lok, lerr := load.Next()
			as, aok, aerr := attach.Next()
			if ls != as || lok != aok || (lerr == nil) != (aerr == nil) {
				t.Fatalf("Next diverged: %+v, %v, %v after LoadPage, %+v, %v, %v after AttachPage", ls, lok, lerr, as, aok, aerr)
			}
			if ls != hs || lok != hok || (lerr == nil) != (herr == nil) {
				t.Fatalf("Next diverged: %+v, %v, %v of the whole page, %+v, %v, %v head first with a mark at %d (raised: %v)", ls, lok, lerr, hs, hok, herr, valid, raised)
			}
			if lerr != nil {
				if !errors.Is(lerr, ErrCorrupt) || !errors.Is(herr, ErrCorrupt) {
					t.Fatalf("Next = %v / %v, want ErrCorrupt", lerr, herr)
				}
				return
			}
			if !lok {
				if head.Short() {
					t.Fatal("the head-first cursor still calls a finished page short")
				}
				return
			}
			if ls.Start < pageHdrLen+packetHdrLen || ls.Len < 0 || ls.Start+ls.Len > fuzzPageSize {
				t.Fatalf("span %+v lies outside the %d-byte page", ls, fuzzPageSize)
			}
			if !raised && hs.Start+hs.Len > valid {
				t.Fatalf("span %+v reaches past the valid mark at %d", hs, valid)
			}
		}
	})
}

// FuzzReadNode feeds an arbitrary page and an arbitrary offset into it to
// the reader behind the node memo (readNode and deserializeNode), which
// trusts a region of a data page a disk filled: either the pointer or the
// page is refused, or the node it yields lies inside the page, has a
// child for every key and survives a round trip through the serializer;
// never a panic.
func FuzzReadNode(f *testing.F) {
	built := newMemFile(fuzzPageSize)
	meta := buildTree(f, built, fuzzPageSize, 4, 200, time.Millisecond, 40)
	root := meta.Root
	good := built.blocks[root.Page]
	f.Add(good, uint16(root.Offset))
	f.Add(good, uint16(root.Offset+1))
	f.Add(good[:root.Offset+nodeHdrLen], uint16(root.Offset))
	f.Add(good, uint16(fuzzPageSize))

	f.Fuzz(func(t *testing.T, data []byte, off uint16) {
		file := newMemFile(fuzzPageSize)
		page := make([]byte, fuzzPageSize) // the same bytes as a whole page: cut or zero-filled to size
		copy(page, data)
		file.blocks[root.Page] = page
		tree, err := Open(file, fuzzPageSize, meta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.readNode(Ptr{Page: root.Page, Offset: int32(off)}, make([]byte, fuzzPageSize))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadPointer) {
				t.Fatalf("readNode = %v, want ErrCorrupt or ErrBadPointer", err)
			}
			return
		}
		if len(got.keys) != len(got.childs) || int(off)+got.serializedLen() > fuzzPageSize {
			t.Fatalf("%d keys and %d children from offset %d of a %d-byte page", len(got.keys), len(got.childs), off, fuzzPageSize)
		}
		if again, err := deserializeNode(got.serialize()); err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip through the serializer: %+v → %+v, %v", got, again, err)
		}
	})
}
