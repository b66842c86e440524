// Package ibtree implements Calliope's Integrated B-tree (§2.2.1).
//
// Content is stored as a primary B-tree keyed by delivery time: the
// file's large data pages (256 KB in the paper) hold the packet records
// themselves, and the search tree's internal pages (28 KB, 1024 keys)
// are *embedded into the data pages* as they fill instead of being
// written separately. Writes therefore always move one data page per
// disk transfer (no extra seek for index pages), sequential scans read
// the internal pages as part of the data page and skip them (they touch
// ~0.1 % of the bytes), and seeks traverse the embedded tree top-down.
//
// The builder requires keys (delivery-time offsets from the start of
// the recording) to be non-decreasing, which is exactly how a recording
// session produces them.
//
// A writer hands the builder a packet either whole (Append, which copies
// it) or as a length (Reserve, which places the record header and returns
// the page bytes for the writer to frame its payload into). Either way the
// builder owns one page for its whole life and rewrites it in place, so
// writing content allocates nothing per packet or per page.
package ibtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Record kinds within a data page.
const (
	kindEnd      = 0 // no more records in this page
	kindPacket   = 1
	kindInternal = 2
)

const (
	pageHdrLen   = 8  // per data page: u32 magic, u32 reserved
	packetHdrLen = 16 // u8 kind, 3 pad, u32 len, i64 time
	embedHdrLen  = 8  // u8 kind, 3 pad, u32 len
	entryLen     = 16 // i64 key, u64 child pointer
	nodeHdrLen   = 8  // u16 level, u16 nkeys, u32 pad
	pageMagic    = 0x1B7EE000
)

// DefaultMaxKeys matches the paper's 1024-key internal pages.
const DefaultMaxKeys = 1024

// Package errors.
var (
	ErrKeyOrder   = errors.New("ibtree: delivery times must be non-decreasing")
	ErrTooLarge   = errors.New("ibtree: packet larger than a data page")
	ErrCorrupt    = errors.New("ibtree: corrupt page")
	ErrEmpty      = errors.New("ibtree: tree holds no packets")
	ErrFinalized  = errors.New("ibtree: builder already finalized")
	ErrNotFinal   = errors.New("ibtree: builder not finalized")
	ErrBadPointer = errors.New("ibtree: invalid root pointer")
)

// BlockFile is the storage an IB-tree lives in: a file of fixed-size
// blocks. msufs.File and msufs.StripedFile both satisfy it.
//
// WriteBlock must not retain p after it returns (io.WriterAt's rule): a
// Builder rewrites its one page in place for the next block.
type BlockFile interface {
	WriteBlock(i int64, p []byte) error
	ReadBlock(i int64, p []byte) error
	BlockLen(i int64) int
}

// Packet is one stored media packet with its delivery-time offset from
// the start of the recording (§2.2.1: "arrival times in delivery
// schedules are not absolute").
type Packet struct {
	Time    time.Duration
	Payload []byte
}

// Ptr locates an embedded node or data page: data page index plus byte
// offset of the node within the page. A leaf child pointer has
// Offset == 0 referring to the whole data page.
type Ptr struct {
	Page   int64
	Offset int32
}

func (p Ptr) encode() uint64    { return uint64(p.Page)<<20 | uint64(uint32(p.Offset)) }
func decodePtr(v uint64) Ptr    { return Ptr{Page: int64(v >> 20), Offset: int32(v & 0xFFFFF)} }
func (p Ptr) String() string    { return fmt.Sprintf("page %d+%d", p.Page, p.Offset) }
func (p Ptr) valid(bs int) bool { return p.Page >= 0 && p.Offset >= 0 && int(p.Offset) < bs }

// Meta describes a finished tree; the caller persists it (Calliope
// stores it in msufs file attributes).
type Meta struct {
	Root       Ptr           // root node location; Level 0 root means a leaf-only file
	RootLevel  int           // height of the tree above the data pages
	Packets    int64         // total packet count
	Pages      int64         // data page count
	Length     time.Duration // last delivery time
	DataBytes  int64         // payload bytes stored
	IndexBytes int64         // bytes consumed by embedded internal pages
	IndexPages int64         // data pages containing >=1 embedded internal page
}

// node is an in-memory internal page under construction or decoded.
type node struct {
	level  int
	keys   []time.Duration
	childs []uint64
}

func (n *node) serializedLen() int { return nodeHdrLen + len(n.keys)*entryLen }

func (n *node) serialize() []byte {
	buf := make([]byte, n.serializedLen())
	binary.BigEndian.PutUint16(buf[0:2], uint16(n.level))
	binary.BigEndian.PutUint16(buf[2:4], uint16(len(n.keys)))
	off := nodeHdrLen
	for i := range n.keys {
		binary.BigEndian.PutUint64(buf[off:], uint64(n.keys[i]))
		binary.BigEndian.PutUint64(buf[off+8:], n.childs[i])
		off += entryLen
	}
	return buf
}

func deserializeNode(p []byte) (*node, error) {
	if len(p) < nodeHdrLen {
		return nil, fmt.Errorf("%w: truncated node header", ErrCorrupt)
	}
	n := &node{level: int(binary.BigEndian.Uint16(p[0:2]))}
	nkeys := int(binary.BigEndian.Uint16(p[2:4]))
	if len(p) < nodeHdrLen+nkeys*entryLen {
		return nil, fmt.Errorf("%w: node shorter than its key count", ErrCorrupt)
	}
	n.keys = make([]time.Duration, nkeys)
	n.childs = make([]uint64, nkeys)
	off := nodeHdrLen
	for i := 0; i < nkeys; i++ {
		n.keys[i] = time.Duration(binary.BigEndian.Uint64(p[off:]))
		n.childs[i] = binary.BigEndian.Uint64(p[off+8:])
		off += entryLen
	}
	return n, nil
}

// Builder constructs an IB-tree by appending packets in delivery-time
// order. It buffers one data page in memory; each full page is written
// with a single WriteBlock — the single-transfer property the paper's
// disk duty cycle depends on.
//
// The page is allocated once and rewritten in place for every block, so
// a writer that frames its records with Reserve copies each payload byte
// once, into the page, and allocates nothing per packet or per page.
type Builder struct {
	f        BlockFile
	pageSize int
	maxKeys  int

	page          []byte // the data page under construction, reused for every block
	pageUsed      int
	pageIdx       int64
	pageHasPacket bool
	pageHasNode   bool
	pageFirstTime time.Duration

	// levels[0] is the level-1 internal page under construction (its
	// children are data pages); levels[i] children are embedded level
	// i+1 nodes.
	levels []*node

	meta      Meta
	lastTime  time.Duration
	started   bool
	finalized bool
}

// NewBuilder starts a tree in f with the given page size (the file's
// block size). maxKeys ≤ 0 selects DefaultMaxKeys.
func NewBuilder(f BlockFile, pageSize, maxKeys int) (*Builder, error) {
	if pageSize < pageHdrLen+packetHdrLen+1 {
		return nil, fmt.Errorf("ibtree: page size %d too small", pageSize)
	}
	if maxKeys <= 0 {
		maxKeys = DefaultMaxKeys
	}
	if maxKeys < 2 {
		return nil, fmt.Errorf("ibtree: maxKeys %d < 2", maxKeys)
	}
	if nodeHdrLen+maxKeys*entryLen+embedHdrLen > pageSize-pageHdrLen {
		return nil, fmt.Errorf("ibtree: %d-key internal pages do not fit %d-byte data pages", maxKeys, pageSize)
	}
	b := &Builder{f: f, pageSize: pageSize, maxKeys: maxKeys, page: make([]byte, pageSize)}
	binary.BigEndian.PutUint32(b.page[0:4], pageMagic) // the header never changes
	b.resetPage()
	return b, nil
}

func (b *Builder) resetPage() {
	b.pageUsed = pageHdrLen
	b.pageHasPacket = false
	b.pageHasNode = false
}

// writePage writes the page under construction as block pageIdx. What the
// previous block left past pageUsed is cleared first, so the block reads
// as if the page were fresh: on a full page that is less than one record.
// A failed write leaves the page as it was, for the retry to write again.
func (b *Builder) writePage() error {
	clear(b.page[b.pageUsed:])
	if err := b.f.WriteBlock(b.pageIdx, b.page); err != nil {
		return err
	}
	b.meta.Pages++
	return nil
}

// MaxPacket reports the largest payload one page can hold.
func (b *Builder) MaxPacket() int { return b.pageSize - pageHdrLen - packetHdrLen }

// Append adds one packet. Its time must be ≥ the previous packet's.
func (b *Builder) Append(pkt Packet) error {
	dst, err := b.Reserve(pkt.Time, len(pkt.Payload))
	if err == nil {
		copy(dst, pkt.Payload)
	}
	return err
}

// Reserve places a packet record of n payload bytes at delivery time t,
// under the rules Append keeps, and returns the page bytes its payload
// goes in. The caller writes all n of them before its next call to the
// builder: the slice is the builder's own page, and it is overwritten
// once that page has been written out.
func (b *Builder) Reserve(t time.Duration, n int) ([]byte, error) {
	if b.finalized {
		return nil, ErrFinalized
	}
	if b.started && t < b.lastTime {
		return nil, fmt.Errorf("%w: %v after %v", ErrKeyOrder, t, b.lastTime)
	}
	if n < 0 || n > b.MaxPacket() {
		return nil, fmt.Errorf("%w: %d bytes into %d-byte pages", ErrTooLarge, n, b.pageSize)
	}
	need := packetHdrLen + n
	// Closing a page can cascade full internal pages into the fresh one;
	// when they leave too little room for this packet, that page goes out
	// holding index only and the packet opens the next.
	for b.pageUsed+need > b.pageSize {
		if err := b.closeDataPage(); err != nil {
			return nil, err
		}
	}
	if !b.pageHasPacket {
		b.pageHasPacket = true
		b.pageFirstTime = t
	}
	end := b.pageUsed + need
	p := b.page[b.pageUsed:end:end]
	p[0], p[1], p[2], p[3] = kindPacket, 0, 0, 0
	binary.BigEndian.PutUint32(p[4:8], uint32(n))
	binary.BigEndian.PutUint64(p[8:16], uint64(t))
	b.pageUsed += need
	b.started = true
	b.lastTime = t
	b.meta.Packets++
	b.meta.Length = t
	b.meta.DataBytes += int64(n)
	return p[packetHdrLen:], nil
}

// closeDataPage flushes the current page and, if it held packets,
// registers it in the level-1 index. The registration runs after the
// flush so any cascading node embeds land in the fresh page, never
// displacing packets already placed in the old one.
func (b *Builder) closeDataPage() error {
	if b.pageUsed == pageHdrLen {
		return nil
	}
	hadPacket := b.pageHasPacket
	firstTime := b.pageFirstTime
	idx := b.pageIdx
	if err := b.writePage(); err != nil {
		return err
	}
	b.pageIdx++
	b.resetPage()
	if hadPacket {
		return b.addIndexEntry(0, firstTime, Ptr{Page: idx}.encode())
	}
	return nil
}

// addIndexEntry inserts (key, child) into the internal page at the
// given level index, embedding and propagating when it fills.
func (b *Builder) addIndexEntry(level int, key time.Duration, child uint64) error {
	for len(b.levels) <= level {
		b.levels = append(b.levels, &node{level: len(b.levels) + 1})
	}
	n := b.levels[level]
	n.keys = append(n.keys, key)
	n.childs = append(n.childs, child)
	if len(n.keys) >= b.maxKeys {
		return b.embedNode(level)
	}
	return nil
}

// embedNode writes the full internal page at the given level index into
// the current data page (flushing first if it does not fit) and
// registers its location one level up.
func (b *Builder) embedNode(level int) error {
	n := b.levels[level]
	if len(n.keys) == 0 {
		return nil
	}
	loc, err := b.placeNode(n)
	if err != nil {
		return err
	}
	firstKey := n.keys[0]
	b.levels[level] = &node{level: n.level}
	return b.addIndexEntry(level+1, firstKey, loc.encode())
}

// placeNode serializes a node into the current data page, flushing
// first if it does not fit, and returns its location.
func (b *Builder) placeNode(n *node) (Ptr, error) {
	raw := n.serialize()
	need := embedHdrLen + len(raw)
	if b.pageUsed+need > b.pageSize {
		if err := b.closeDataPage(); err != nil {
			return Ptr{}, err
		}
	}
	loc := Ptr{Page: b.pageIdx, Offset: int32(b.pageUsed + embedHdrLen)}
	p := b.page[b.pageUsed:]
	p[0], p[1], p[2], p[3] = kindInternal, 0, 0, 0
	binary.BigEndian.PutUint32(p[4:8], uint32(len(raw)))
	copy(p[embedHdrLen:], raw)
	b.pageUsed += need
	b.meta.IndexBytes += int64(need)
	if !b.pageHasNode {
		b.pageHasNode = true
		b.meta.IndexPages++
	}
	return loc, nil
}

// Finalize closes the last data page, embeds all partial internal pages
// bottom-up into data pages, writes the root, and returns the tree's
// metadata. The builder cannot be used afterwards.
func (b *Builder) Finalize() (Meta, error) {
	if b.finalized {
		return Meta{}, ErrFinalized
	}
	b.finalized = true
	if b.meta.Packets == 0 {
		return Meta{}, ErrEmpty
	}
	if err := b.closeDataPage(); err != nil {
		return Meta{}, err
	}
	// Embed partial nodes upward. The highest non-empty level after all
	// lower embeds becomes the root.
	for level := 0; level < len(b.levels); level++ {
		n := b.levels[level]
		if len(n.keys) == 0 {
			continue
		}
		if level == len(b.levels)-1 {
			loc, err := b.placeNode(n)
			if err != nil {
				return Meta{}, err
			}
			b.meta.Root = loc
			b.meta.RootLevel = n.level
			break
		}
		if err := b.embedNode(level); err != nil {
			return Meta{}, err
		}
	}
	// Flush the page holding the root (and any trailing embeds).
	if b.pageUsed > pageHdrLen {
		if err := b.writePage(); err != nil {
			return Meta{}, err
		}
	}
	return b.meta, nil
}
