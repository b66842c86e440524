package ibtree

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Tree reads a finalized IB-tree. It is safe for concurrent use: every
// cursor of one content file shares one Tree and, through it, one copy
// of the index.
type Tree struct {
	f        BlockFile
	pageSize int
	meta     Meta

	// nodes memoises the decoded internal pages PageCursorAt has walked,
	// by location. The index of a finalized tree never changes, so an
	// entry is valid for the Tree's lifetime; a decoded node is at most
	// 16 KB where the data page it was cut from is 256 KB, and a title
	// has one level-1 node per 1024 data pages.
	mu    sync.Mutex
	nodes map[Ptr]*memoNode
}

// memoNode is one memoised node: n once it is loaded, and until then
// done, which the seek loading it closes when the load lands. Concurrent
// seeks that miss on the same node wait on done, so they cost one read
// between them.
type memoNode struct {
	done chan struct{}
	n    *node
	err  error
}

// Open attaches to a finalized tree described by meta.
func Open(f BlockFile, pageSize int, meta Meta) (*Tree, error) {
	if pageSize < pageHdrLen+packetHdrLen+1 {
		return nil, fmt.Errorf("ibtree: page size %d too small", pageSize)
	}
	if meta.Packets == 0 {
		return nil, ErrEmpty
	}
	if !meta.Root.valid(pageSize) || meta.Root.Page >= meta.Pages {
		return nil, fmt.Errorf("%w: root %v with %d pages", ErrBadPointer, meta.Root, meta.Pages)
	}
	return &Tree{f: f, pageSize: pageSize, meta: meta, nodes: make(map[Ptr]*memoNode)}, nil
}

// Meta returns the tree's metadata.
func (t *Tree) Meta() Meta { return t.meta }

// Length reports the delivery time of the last packet.
func (t *Tree) Length() time.Duration { return t.meta.Length }

// PageSize reports the tree's data-page size (the file's block size).
func (t *Tree) PageSize() int { return t.pageSize }

// readPage loads data page i.
func (t *Tree) readPage(i int64, buf []byte) error {
	if i < 0 || i >= t.meta.Pages {
		return fmt.Errorf("%w: page %d of %d", ErrCorrupt, i, t.meta.Pages)
	}
	if err := t.f.ReadBlock(i, buf); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(buf[0:4]) != pageMagic {
		return fmt.Errorf("%w: bad magic on page %d", ErrCorrupt, i)
	}
	return nil
}

// readNode loads the embedded internal page at p, reading the data page
// it sits in into buf (the caller's scratch).
func (t *Tree) readNode(p Ptr, buf []byte) (*node, error) {
	if err := t.readPage(p.Page, buf); err != nil {
		return nil, err
	}
	if int(p.Offset) < pageHdrLen+embedHdrLen || int(p.Offset) > t.pageSize {
		return nil, fmt.Errorf("%w: node offset %d", ErrBadPointer, p.Offset)
	}
	// The embed header sits just before the node body.
	hdr := buf[p.Offset-embedHdrLen:]
	if hdr[0] != kindInternal {
		return nil, fmt.Errorf("%w: pointer %v does not address an internal page", ErrCorrupt, p)
	}
	n := int(binary.BigEndian.Uint32(hdr[4:8]))
	if int(p.Offset)+n > t.pageSize {
		return nil, fmt.Errorf("%w: node overruns page", ErrCorrupt)
	}
	return deserializeNode(buf[p.Offset : int(p.Offset)+n])
}

// memoised returns the node at p from the memo, reading and decoding
// it first if no seek has been through it yet. A failed read is not
// remembered: the device may answer the next one.
func (t *Tree) memoised(p Ptr) (*node, error) {
	t.mu.Lock()
	e, found := t.nodes[p]
	if found && e.n != nil {
		t.mu.Unlock()
		return e.n, nil
	}
	if !found {
		e = &memoNode{done: make(chan struct{})}
		t.nodes[p] = e
	}
	t.mu.Unlock()
	if found {
		<-e.done // another seek's read of the node is in flight
		return e.n, e.err
	}
	n, err := t.readNode(p, make([]byte, t.pageSize))
	t.mu.Lock()
	e.n, e.err = n, err
	if err != nil {
		delete(t.nodes, p)
	}
	t.mu.Unlock()
	close(e.done)
	return n, err
}

// descend walks the embedded internal pages from the root down to the
// leaf data page that contains the first packet with delivery time
// ≥ tm, fetching each node with load. The number of nodes it visits is
// the tree height.
func (t *Tree) descend(tm time.Duration, load func(Ptr) (*node, error)) (Ptr, error) {
	ptr := t.meta.Root
	for level := t.meta.RootLevel; level >= 1; level-- {
		n, err := load(ptr)
		if err != nil {
			return Ptr{}, err
		}
		if n.level != level {
			return Ptr{}, fmt.Errorf("%w: expected level %d node, found %d", ErrCorrupt, level, n.level)
		}
		if len(n.keys) == 0 {
			return Ptr{}, fmt.Errorf("%w: empty internal page", ErrCorrupt)
		}
		// Descend to the last child whose first key is strictly below
		// tm (the first child if none is). Packets with time == tm can
		// start in that child when duplicate delivery times span a
		// page boundary; the caller's forward scan crosses into the
		// next page when needed.
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= tm })
		if i > 0 {
			i--
		}
		ptr = decodePtr(n.childs[i])
	}
	return ptr, nil
}

// SeekTime positions a page cursor as PageCursorAt(tm) does, found the
// un-memoised way: it traverses the embedded internal pages "in the
// usual way" (§2.2.1), reading each off the file through one scratch
// page, even from the start. It shares nothing with the memo
// PageCursorAt descends through, which is what makes it the reference
// the memo is tested against.
func (t *Tree) SeekTime(tm time.Duration) (*PageCursor, error) {
	tm = t.clamp(tm)
	scratch := make([]byte, t.pageSize)
	ptr, err := t.descend(tm, func(p Ptr) (*node, error) { return t.readNode(p, scratch) })
	if err != nil {
		return nil, err
	}
	return &PageCursor{t: t, next: ptr.Page, cur: -1, skip: tm}, nil
}

// clamp brings a seek position inside the content: before the start is
// the first packet, beyond the end the final one.
func (t *Tree) clamp(tm time.Duration) time.Duration { return min(max(tm, 0), t.meta.Length) }

// PacketSpan locates one packet's payload inside a page buffer the
// caller loaded with PageCursor.LoadPage: Payload-equivalent bytes are
// buf[Start : Start+Len]. It is a value, so iterating spans allocates
// nothing.
type PacketSpan struct {
	Time  time.Duration
	Start int // payload offset within the loaded page buffer
	Len   int // payload length in bytes
}

// PageCursor is the block-granular read path the paper's disk process
// runs (§2.3), and the package's one reader of data pages, whatever the
// caller: it loads whole data pages into caller-owned buffers and
// yields packet *descriptors* whose payloads alias the page memory —
// no per-packet allocation and no payload copy. The caller owns buffer
// lifetime: a span is valid exactly as long as the buffer it was
// parsed from still holds that page.
//
// Usage: LoadPage(buf) to pull the next data page, then Next() until it
// reports false, then LoadPage again (the same buffer or a fresh one)
// for the following page. LoadPage returning false means end of tree.
type PageCursor struct {
	t    *Tree
	next int64  // next data page index to load
	cur  int64  // currently/most recently loaded page; -1 before the first
	buf  []byte // caller's buffer holding the current page; nil between pages
	off  int
	// valid is the mark below which buf holds the page: all of it, except
	// while a page attached head first (AttachHead) is still arriving.
	valid int
	skip  time.Duration // suppress packets with Time < skip (seek tail)
}

// PageCursorAt returns a page cursor positioned so that the first span
// it yields is the first packet with delivery time ≥ tm (the last
// packet if tm is beyond the end).
//
// Playing from the start costs no index I/O (§2.2.1): with no key below
// tm the descent would take the first child at every level, and the
// builder puts the first packet in data page 0, so the cursor starts
// there without looking. Any other position descends through the memo,
// so only a node no seek has visited before is read, and once a title's
// index is resident a seek touches no page but the one it lands on.
func (t *Tree) PageCursorAt(tm time.Duration) (*PageCursor, error) {
	if tm = t.clamp(tm); tm == 0 {
		return &PageCursor{t: t, cur: -1}, nil
	}
	ptr, err := t.descend(tm, t.memoised)
	if err != nil {
		return nil, err
	}
	return &PageCursor{t: t, next: ptr.Page, cur: -1, skip: tm}, nil
}

// LoadPage reads the next data page into buf (which must be exactly one
// page long) and reports whether there was one; false means the cursor
// is past the last page. Spans from the previous page die here: they
// indexed a buffer that no longer holds that page (unless the caller
// rotates distinct buffers, which is the double-buffering idiom).
func (c *PageCursor) LoadPage(buf []byte) (bool, error) {
	if len(buf) != c.t.pageSize {
		return false, fmt.Errorf("ibtree: LoadPage buffer is %d bytes, page size is %d", len(buf), c.t.pageSize)
	}
	c.buf = nil
	if c.next >= c.t.meta.Pages {
		return false, nil
	}
	if err := c.t.readPage(c.next, buf); err != nil {
		return false, err
	}
	c.buf = buf
	c.off = pageHdrLen
	c.valid = len(buf)
	c.cur = c.next
	c.next++
	return true, nil
}

// Page reports the index of the currently (or most recently) loaded
// data page, -1 before the first LoadPage.
func (c *PageCursor) Page() int64 { return c.cur }

// NextPage reports the index of the data page the next LoadPage (or
// AttachPage) would consume, or -1 when the cursor is past the last
// page. A RAM cache keyed by page index asks this before deciding
// whether the next page needs a disk read at all.
func (c *PageCursor) NextPage() int64 {
	if c.next >= c.t.meta.Pages {
		return -1
	}
	return c.next
}

// AttachPage advances the cursor onto its next data page using bytes
// the caller already holds — the cache-hit path. buf must contain
// exactly the page NextPage reports (as a previous LoadPage of the
// same content produced it); no disk I/O happens. The page magic is
// re-verified so a mis-keyed cache entry surfaces as corruption
// instead of garbage spans. Returns false past the last page.
func (c *PageCursor) AttachPage(buf []byte) (bool, error) {
	return c.AttachHead(buf, len(buf))
}

// AttachHead is AttachPage for a page that is still arriving: buf is
// the whole page's buffer, of which only the first valid bytes are in
// yet. Next yields the spans that lie wholly below that mark and then
// stops short (see Short) without losing its place; Raise moves the
// mark as more of the page lands. Nothing above the mark is looked at.
func (c *PageCursor) AttachHead(buf []byte, valid int) (bool, error) {
	if len(buf) != c.t.pageSize {
		return false, fmt.Errorf("ibtree: AttachPage buffer is %d bytes, page size is %d", len(buf), c.t.pageSize)
	}
	if valid < pageHdrLen || valid > len(buf) {
		return false, fmt.Errorf("ibtree: valid mark %d outside a page of %d bytes", valid, len(buf))
	}
	c.buf = nil
	if c.next >= c.t.meta.Pages {
		return false, nil
	}
	if binary.BigEndian.Uint32(buf[0:4]) != pageMagic {
		return false, fmt.Errorf("%w: bad magic on attached page %d", ErrCorrupt, c.next)
	}
	c.buf = buf
	c.off = pageHdrLen
	c.valid = valid
	c.cur = c.next
	c.next++
	return true, nil
}

// Raise moves the valid mark of the page attached with AttachHead up to
// valid (the page's length once all of it is in); Next carries on from
// the record it stopped short of.
func (c *PageCursor) Raise(valid int) {
	if c.buf != nil && valid > c.valid {
		c.valid = min(valid, len(c.buf))
	}
}

// Short reports, after Next has said there is no span, whether that is
// because the next record reaches past the valid mark — the page is not
// finished, Raise and ask again — and not because the page is done.
func (c *PageCursor) Short() bool { return c.buf != nil }

// Next yields the next packet span within the currently loaded page.
// ok == false means the page is exhausted: LoadPage the next one (or,
// on a page attached head first, that the valid mark is reached: see
// Short). Embedded internal pages are read past without being
// interpreted, as the paper's sequential scan does.
func (c *PageCursor) Next() (span PacketSpan, ok bool, err error) {
	for c.buf != nil {
		if c.off+1 > c.valid {
			if c.valid == len(c.buf) {
				c.buf = nil // page exhausted; spans already yielded stay valid
			}
			return PacketSpan{}, false, nil
		}
		switch c.buf[c.off] {
		case kindEnd:
			c.buf = nil // page exhausted; spans already yielded stay valid
			return PacketSpan{}, false, nil
		case kindPacket:
			if c.off+packetHdrLen > c.valid {
				return PacketSpan{}, false, c.past("truncated packet header")
			}
			n := int(binary.BigEndian.Uint32(c.buf[c.off+4 : c.off+8]))
			tm := time.Duration(binary.BigEndian.Uint64(c.buf[c.off+8 : c.off+16]))
			start := c.off + packetHdrLen
			if start+n > c.valid {
				return PacketSpan{}, false, c.past("packet overruns the page")
			}
			c.off = start + n
			if tm < c.skip {
				continue // seek tail: before the requested position
			}
			c.skip = 0
			return PacketSpan{Time: tm, Start: start, Len: n}, true, nil
		case kindInternal:
			if c.off+embedHdrLen > c.valid {
				return PacketSpan{}, false, c.past("truncated embed header")
			}
			n := int(binary.BigEndian.Uint32(c.buf[c.off+4 : c.off+8]))
			c.off += embedHdrLen + n
		default:
			return PacketSpan{}, false, fmt.Errorf("%w: unknown record kind %d on page %d", ErrCorrupt, c.buf[c.off], c.cur)
		}
	}
	return PacketSpan{}, false, nil
}

// past is Next's answer to a record that reaches beyond the valid mark.
// While the page is still arriving that is no error: the cursor stays on
// the record, and it is read again once Raise has moved the mark. On a
// whole page it is the corruption it always was.
func (c *PageCursor) past(what string) error {
	if c.valid < len(c.buf) {
		return nil
	}
	return fmt.Errorf("%w: %s on page %d", ErrCorrupt, what, c.cur)
}
