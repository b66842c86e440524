package ibtree

import (
	"bytes"
	"testing"
	"time"
)

// TestAttachPageMatchesLoadPage drives one cursor with LoadPage (the
// disk path) while a second cursor consumes the same pages via
// AttachPage (the cache-hit path): identical spans must come out, and
// AttachPage must touch the backing file zero times.
func TestAttachPageMatchesLoadPage(t *testing.T) {
	f := newMemFile(4096)
	const n = 3000
	meta := buildTree(t, f, 4096, 4, n, time.Millisecond, 64)
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := tr.PageCursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := tr.PageCursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, tr.PageSize())
	pages := 0
	for {
		if want, got := disk.NextPage(), hit.NextPage(); want != got {
			t.Fatalf("NextPage diverged: disk %d, hit %d", want, got)
		}
		ok, err := disk.LoadPage(buf)
		if err != nil {
			t.Fatalf("LoadPage: %v", err)
		}
		ok2, err := hit.AttachPage(buf)
		if err != nil {
			t.Fatalf("AttachPage: %v", err)
		}
		if ok != ok2 {
			t.Fatalf("LoadPage ok=%v, AttachPage ok=%v", ok, ok2)
		}
		if !ok {
			break
		}
		pages++
		if disk.Page() != hit.Page() {
			t.Fatalf("Page diverged: disk %d, hit %d", disk.Page(), hit.Page())
		}
		for {
			ws, wok, werr := disk.Next()
			gs, gok, gerr := hit.Next()
			if werr != nil || gerr != nil {
				t.Fatalf("Next: %v / %v", werr, gerr)
			}
			if wok != gok {
				t.Fatalf("Next ok diverged: %v / %v", wok, gok)
			}
			if !wok {
				break
			}
			if ws != gs {
				t.Fatalf("span diverged: %+v vs %+v", ws, gs)
			}
			if !bytes.Equal(buf[ws.Start:ws.Start+ws.Len], buf[gs.Start:gs.Start+gs.Len]) {
				t.Fatal("span payloads differ")
			}
		}
	}
	if pages != int(meta.Pages) {
		t.Fatalf("consumed %d pages, tree has %d", pages, meta.Pages)
	}
	if disk.NextPage() != -1 || hit.NextPage() != -1 {
		t.Fatalf("NextPage past end: %d / %d", disk.NextPage(), hit.NextPage())
	}
}

// TestAttachPageRejectsGarbage checks a mis-keyed cache entry (wrong
// bytes for the position) surfaces as corruption, and a wrong-size
// buffer is refused outright.
func TestAttachPageRejectsGarbage(t *testing.T) {
	f := newMemFile(4096)
	meta := buildTree(t, f, 4096, 4, 100, time.Millisecond, 64)
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := tr.PageCursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.AttachPage(make([]byte, 4095)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := pc.AttachPage(make([]byte, 4096)); err == nil {
		t.Fatal("zeroed page (bad magic) accepted")
	}
	// The cursor is still usable via the disk path after the refusals.
	buf := make([]byte, 4096)
	if ok, err := pc.LoadPage(buf); err != nil || !ok {
		t.Fatalf("LoadPage after refusals: %v %v", ok, err)
	}
}

// TestAttachHeadMatchesAttachPage walks every page of a tree head first,
// at marks from the page header to the page's end: what comes out below
// the mark and after it is raised is what AttachPage yields, no span
// yielded before the raise reaches past the mark, and the bytes above it
// — not the page's until then — are never read.
func TestAttachHeadMatchesAttachPage(t *testing.T) {
	const pageSize = 4096
	f := newMemFile(pageSize)
	meta := buildTree(t, f, pageSize, 4, 3000, time.Millisecond, 64)
	tr, err := Open(f, pageSize, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, mark := range []int{pageHdrLen, pageHdrLen + 1, pageHdrLen + packetHdrLen, 100, pageSize / 8, pageSize - 1, pageSize} {
		whole, err := tr.PageCursorAt(0)
		if err != nil {
			t.Fatal(err)
		}
		head, err := tr.PageCursorAt(0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, pageSize)
		arriving := make([]byte, pageSize)
		for {
			ok, err := whole.LoadPage(buf)
			if err != nil {
				t.Fatal(err)
			}
			copy(arriving, buf[:mark])
			clear(arriving[mark:])
			hok, err := head.AttachHead(arriving, mark)
			if err != nil || hok != ok {
				t.Fatalf("mark %d: AttachHead = %v, %v; LoadPage = %v", mark, hok, err, ok)
			}
			if !ok {
				break
			}
			raised := mark == pageSize
			for {
				hs, hok, herr := head.Next()
				if herr == nil && !hok && head.Short() {
					if raised {
						t.Fatalf("mark %d, page %d: short of a mark at the page's end", mark, head.Page())
					}
					raised = true
					copy(arriving[mark:], buf[mark:])
					head.Raise(pageSize)
					hs, hok, herr = head.Next()
				}
				ws, wok, werr := whole.Next()
				if werr != nil || herr != nil {
					t.Fatalf("mark %d: Next: %v / %v", mark, werr, herr)
				}
				if ws != hs || wok != hok {
					t.Fatalf("mark %d, page %d: %+v, %v head first, %+v, %v whole", mark, head.Page(), hs, hok, ws, wok)
				}
				if !wok {
					break
				}
				if !raised && hs.Start+hs.Len > mark {
					t.Fatalf("mark %d: span %+v reaches past it", mark, hs)
				}
			}
		}
	}
	pc, err := tr.PageCursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mark := range []int{-1, pageHdrLen - 1, pageSize + 1} {
		if ok, err := pc.AttachHead(make([]byte, pageSize), mark); ok || err == nil {
			t.Errorf("AttachHead took a valid mark of %d", mark)
		}
	}
}
