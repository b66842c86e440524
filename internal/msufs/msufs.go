// Package msufs is the MSU's user-level file system (§2.3.3).
//
// The paper's MSU bypasses the BSD fast file system: it stores large,
// sequentially-accessed multimedia files in large (256 KB) blocks
// directly on the raw disk, does its own memory management, keeps the
// entire file-system metadata cached in main memory, and deliberately
// has no block cache (multimedia workloads have neither the locality
// nor the sharing to make one pay off — clients would have to be
// synchronized to within about a second to share a 256 KB buffer of
// 1.5 Mbit/s video).
//
// A Volume manages one disk. Files are extent lists of large blocks;
// metadata lives in a reserved region at the front of the device and is
// rewritten in full on each mutation (it is small — large blocks keep
// it so, which is exactly the paper's argument). Space for a recording
// is reserved up front from the client's length estimate and trimmed
// back at commit, implementing §2.2's "unused space will be returned to
// the system once the recording session has completed".
package msufs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"calliope/internal/blockdev"
	"calliope/internal/units"
)

// DefaultBlockSize is the paper's 256 KByte file-system block.
const DefaultBlockSize = int(256 * units.KB)

const (
	magic         = uint64(0xCA11109E_0001)
	defaultMetaSz = int64(1 * units.MB)
	metaHeaderLen = 16 // 8 bytes magic + 8 bytes JSON length
	minBlockSize  = 4096
)

// Package errors.
var (
	ErrNotFormatted = errors.New("msufs: device is not a calliope volume")
	ErrExists       = errors.New("msufs: file exists")
	ErrNotFound     = errors.New("msufs: file not found")
	ErrNoSpace      = errors.New("msufs: out of disk space")
	ErrBadBlock     = errors.New("msufs: block index out of range")
	ErrReadOnly     = errors.New("msufs: file is committed and read-only")
	ErrMetaTooBig   = errors.New("msufs: metadata exceeds reserved region")
)

// Extent is a run of consecutive blocks on the device.
type Extent struct {
	Start int64 `json:"s"`
	Count int64 `json:"c"`
}

type fileMeta struct {
	Name      string            `json:"name"`
	Size      int64             `json:"size"` // valid bytes
	Committed bool              `json:"committed"`
	Extents   []Extent          `json:"extents"`
	Attrs     map[string]string `json:"attrs,omitempty"`

	// deleted marks metadata whose blocks have been freed; stale File
	// handles must not touch them again (the space may already belong
	// to another file).
	deleted bool `json:"-"`
}

func (m *fileMeta) blocks() int64 {
	var n int64
	for _, e := range m.Extents {
		n += e.Count
	}
	return n
}

// FileInfo is the public view of a file's metadata.
type FileInfo struct {
	Name      string
	Size      int64
	Blocks    int64
	Committed bool
	Attrs     map[string]string
}

type superblock struct {
	Magic     uint64      `json:"magic"`
	BlockSize int         `json:"blockSize"`
	MetaSize  int64       `json:"metaSize"`
	Files     []*fileMeta `json:"files"`
}

// Volume is one formatted disk. All methods are safe for concurrent
// use; data-block I/O is not serialized against other data I/O (the
// MSU's per-disk process provides that ordering; the simulator models
// it).
type Volume struct {
	mu        sync.Mutex
	dev       blockdev.BlockDevice
	blockSize int
	metaSize  int64
	nblocks   int64 // data blocks
	files     map[string]*fileMeta
	freeByLen []Extent // free extents, kept sorted by Start
}

// Options configures Format.
type Options struct {
	// BlockSize is the file-system block size; 0 means DefaultBlockSize.
	BlockSize int
	// MetaSize is the reserved metadata region; 0 means 1 MB.
	MetaSize int64
}

// Format initializes dev as an empty volume and returns it mounted.
func Format(dev blockdev.BlockDevice, opts Options) (*Volume, error) {
	bs := opts.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	if bs < minBlockSize {
		return nil, fmt.Errorf("msufs: block size %d too small", bs)
	}
	ms := opts.MetaSize
	if ms == 0 {
		ms = defaultMetaSz
	}
	if ms < metaHeaderLen+2 {
		return nil, fmt.Errorf("msufs: metadata region %d too small", ms)
	}
	nblocks := (dev.Size() - ms) / int64(bs)
	if nblocks < 1 {
		return nil, fmt.Errorf("msufs: device too small: %d bytes with %d metadata", dev.Size(), ms)
	}
	v := &Volume{
		dev:       dev,
		blockSize: bs,
		metaSize:  ms,
		nblocks:   nblocks,
		files:     make(map[string]*fileMeta),
		freeByLen: []Extent{{Start: 0, Count: nblocks}},
	}
	if err := v.flushLocked(); err != nil {
		return nil, err
	}
	return v, nil
}

// Mount loads an existing volume from dev. The superblock is untrusted
// input: a geometry that does not fit the device, a hole or a repeated
// name in the file table, and anything Fsck reports refuse the mount.
func Mount(dev blockdev.BlockDevice) (*Volume, error) {
	hdr := make([]byte, metaHeaderLen)
	if err := dev.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("msufs: reading superblock: %w", err)
	}
	if binary.BigEndian.Uint64(hdr[:8]) != magic {
		return nil, ErrNotFormatted
	}
	n := int64(binary.BigEndian.Uint64(hdr[8:16]))
	if n <= 0 || n > dev.Size()-metaHeaderLen {
		return nil, fmt.Errorf("%w: corrupt metadata length %d", ErrNotFormatted, n)
	}
	raw := make([]byte, n)
	if err := dev.ReadAt(raw, metaHeaderLen); err != nil {
		return nil, fmt.Errorf("msufs: reading metadata: %w", err)
	}
	var sb superblock
	if err := json.Unmarshal(raw, &sb); err != nil {
		return nil, fmt.Errorf("%w: decoding metadata: %v", ErrNotFormatted, err)
	}
	switch {
	case sb.Magic != magic:
		return nil, ErrNotFormatted
	case sb.BlockSize < minBlockSize:
		return nil, fmt.Errorf("%w: block size %d", ErrNotFormatted, sb.BlockSize)
	case sb.MetaSize < metaHeaderLen+n || sb.MetaSize > dev.Size()-int64(sb.BlockSize):
		return nil, fmt.Errorf("%w: metadata region of %d bytes on a %d-byte device", ErrNotFormatted, sb.MetaSize, dev.Size())
	}
	v := &Volume{
		dev:       dev,
		blockSize: sb.BlockSize,
		metaSize:  sb.MetaSize,
		nblocks:   (dev.Size() - sb.MetaSize) / int64(sb.BlockSize),
		files:     make(map[string]*fileMeta, len(sb.Files)),
	}
	used := make([]Extent, 0, len(sb.Files))
	for i, f := range sb.Files {
		if f == nil || f.Name == "" || v.files[f.Name] != nil {
			return nil, fmt.Errorf("%w: file table entry %d is empty, unnamed or repeated", ErrNotFormatted, i)
		}
		v.files[f.Name] = f
		used = append(used, f.Extents...)
	}
	v.freeByLen = complementExtents(used, v.nblocks)
	if issues := v.Fsck(); len(issues) > 0 {
		return nil, fmt.Errorf("%w: %v", ErrNotFormatted, issues[0])
	}
	return v, nil
}

// complementExtents returns the free extents given the used ones over
// [0, nblocks).
func complementExtents(used []Extent, nblocks int64) []Extent {
	sort.Slice(used, func(i, j int) bool { return used[i].Start < used[j].Start })
	var free []Extent
	next := int64(0)
	for _, e := range used {
		if e.Start > next {
			free = append(free, Extent{Start: next, Count: e.Start - next})
		}
		if end := e.Start + e.Count; end > next {
			next = end
		}
	}
	if next < nblocks {
		free = append(free, Extent{Start: next, Count: nblocks - next})
	}
	return free
}

// flushLocked serializes metadata into the reserved region. Callers
// hold v.mu.
func (v *Volume) flushLocked() error {
	sb := superblock{Magic: magic, BlockSize: v.blockSize, MetaSize: v.metaSize}
	names := make([]string, 0, len(v.files))
	for n := range v.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sb.Files = append(sb.Files, v.files[n])
	}
	raw, err := json.Marshal(&sb)
	if err != nil {
		return fmt.Errorf("msufs: encoding metadata: %w", err)
	}
	if int64(len(raw))+metaHeaderLen > v.metaSize {
		return fmt.Errorf("%w: %d bytes into %d", ErrMetaTooBig, len(raw)+metaHeaderLen, v.metaSize)
	}
	buf := make([]byte, metaHeaderLen+len(raw))
	binary.BigEndian.PutUint64(buf[:8], magic)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(raw)))
	copy(buf[metaHeaderLen:], raw)
	return v.dev.WriteAt(buf, 0)
}

// BlockSize reports the volume's block size in bytes.
func (v *Volume) BlockSize() int { return v.blockSize }

// Device exposes the raw disk under the volume. The MSU builds one
// I/O scheduler (internal/iosched) per physical volume over this
// device; data-block reads then flow through the scheduler instead of
// each player calling ReadBlock directly.
func (v *Volume) Device() blockdev.BlockDevice { return v.dev }

// TotalBlocks reports the number of data blocks on the volume.
func (v *Volume) TotalBlocks() int64 { return v.nblocks }

// FreeBlocks reports the number of unallocated data blocks.
func (v *Volume) FreeBlocks() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, e := range v.freeByLen {
		n += e.Count
	}
	return n
}

// BlocksFor reports how many blocks hold n bytes.
func (v *Volume) BlocksFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + int64(v.blockSize) - 1) / int64(v.blockSize)
}

// allocLocked grabs count blocks, preferring a single contiguous run,
// falling back to first-fit fragments. Callers hold v.mu.
func (v *Volume) allocLocked(count int64) ([]Extent, error) {
	if count <= 0 {
		return nil, nil
	}
	var total int64
	for _, e := range v.freeByLen {
		total += e.Count
	}
	if count > total {
		return nil, fmt.Errorf("%w: need %d blocks, have %d", ErrNoSpace, count, total)
	}
	// Best fit: smallest free extent that covers the whole request.
	best := -1
	for i, e := range v.freeByLen {
		if e.Count >= count && (best == -1 || e.Count < v.freeByLen[best].Count) {
			best = i
		}
	}
	if best >= 0 {
		e := &v.freeByLen[best]
		got := Extent{Start: e.Start, Count: count}
		e.Start += count
		e.Count -= count
		if e.Count == 0 {
			v.freeByLen = append(v.freeByLen[:best], v.freeByLen[best+1:]...)
		}
		return []Extent{got}, nil
	}
	// Fragmented: take extents first-fit until satisfied.
	var out []Extent
	for count > 0 {
		e := &v.freeByLen[0]
		take := e.Count
		if take > count {
			take = count
		}
		out = append(out, Extent{Start: e.Start, Count: take})
		e.Start += take
		e.Count -= take
		count -= take
		if e.Count == 0 {
			v.freeByLen = v.freeByLen[1:]
		}
	}
	return out, nil
}

// freeLocked returns extents to the free list, coalescing neighbours.
// Callers hold v.mu.
func (v *Volume) freeLocked(ext []Extent) {
	v.freeByLen = append(v.freeByLen, ext...)
	sort.Slice(v.freeByLen, func(i, j int) bool { return v.freeByLen[i].Start < v.freeByLen[j].Start })
	merged := v.freeByLen[:0]
	for _, e := range v.freeByLen {
		if e.Count == 0 {
			continue
		}
		if n := len(merged); n > 0 && merged[n-1].Start+merged[n-1].Count == e.Start {
			merged[n-1].Count += e.Count
		} else {
			merged = append(merged, e)
		}
	}
	v.freeByLen = merged
}

// Create makes a new file with reserveBytes of space pre-allocated
// (rounded up to whole blocks). The file is writable until Commit.
func (v *Volume) Create(name string, reserveBytes int64, attrs map[string]string) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("msufs: empty file name")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	ext, err := v.allocLocked(v.BlocksFor(reserveBytes))
	if err != nil {
		return nil, err
	}
	m := &fileMeta{Name: name, Extents: ext, Attrs: attrs}
	v.files[name] = m
	if err := v.flushLocked(); err != nil {
		v.freeLocked(ext)
		delete(v.files, name)
		return nil, err
	}
	return &File{v: v, m: m}, nil
}

// Open returns a handle to an existing file.
func (v *Volume) Open(name string) (*File, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &File{v: v, m: m}, nil
}

// Remove deletes a file and frees its blocks.
func (v *Volume) Remove(name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(v.files, name)
	m.deleted = true
	v.freeLocked(m.Extents)
	return v.flushLocked()
}

// Stat reports a file's metadata.
func (v *Volume) Stat(name string) (FileInfo, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.files[name]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return infoOf(m), nil
}

func infoOf(m *fileMeta) FileInfo {
	return FileInfo{Name: m.Name, Size: m.Size, Blocks: m.blocks(), Committed: m.Committed, Attrs: withAttrs(m.Attrs, nil)}
}

// withAttrs returns a copy of attrs with set laid over it.
func withAttrs(attrs, set map[string]string) map[string]string {
	out := make(map[string]string, len(attrs)+len(set))
	for k, val := range attrs {
		out[k] = val
	}
	for k, val := range set {
		out[k] = val
	}
	return out
}

// List reports all files, sorted by name.
func (v *Volume) List() []FileInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]FileInfo, 0, len(v.files))
	for _, m := range v.files {
		out = append(out, infoOf(m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetAttrs lays attrs over a file's attributes and persists metadata in
// one write: all of them land or, the write failing, none.
func (v *Volume) SetAttrs(name string, attrs map[string]string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	old := m.Attrs
	m.Attrs = withAttrs(old, attrs)
	err := v.flushLocked()
	if err != nil {
		m.Attrs = old
	}
	return err
}

// File is a handle on one file. Block indices are file-relative.
type File struct {
	v *Volume
	m *fileMeta
}

// Name reports the file's name.
func (f *File) Name() string { return f.m.Name }

// Size reports the count of valid bytes.
func (f *File) Size() int64 {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	return f.m.Size
}

// Blocks reports the number of allocated blocks.
func (f *File) Blocks() int64 {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	return f.m.blocks()
}

// devOffset maps a file block index to a device byte offset.
// Callers hold v.mu.
func (f *File) devOffsetLocked(block int64) (int64, error) {
	if block < 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadBlock, block)
	}
	rem := block
	for _, e := range f.m.Extents {
		if rem < e.Count {
			return f.v.metaSize + (e.Start+rem)*int64(f.v.blockSize), nil
		}
		rem -= e.Count
	}
	return 0, fmt.Errorf("%w: %d beyond %d allocated", ErrBadBlock, block, f.m.blocks())
}

// WriteBlock writes p (at most one block) at file block index i. The
// write grows the valid size if it extends past it. Growing beyond the
// reservation allocates more blocks.
func (f *File) WriteBlock(i int64, p []byte) error {
	if len(p) > f.v.blockSize {
		return fmt.Errorf("msufs: write of %d bytes exceeds block size %d", len(p), f.v.blockSize)
	}
	f.v.mu.Lock()
	if f.m.deleted {
		f.v.mu.Unlock()
		return fmt.Errorf("%w: %s was removed", ErrNotFound, f.m.Name)
	}
	if f.m.Committed {
		f.v.mu.Unlock()
		return ErrReadOnly
	}
	if need := i + 1 - f.m.blocks(); need > 0 {
		ext, err := f.v.allocLocked(need)
		if err != nil {
			f.v.mu.Unlock()
			return err
		}
		f.m.Extents = append(f.m.Extents, ext...)
	}
	off, err := f.devOffsetLocked(i)
	if err != nil {
		f.v.mu.Unlock()
		return err
	}
	if end := i*int64(f.v.blockSize) + int64(len(p)); end > f.m.Size {
		f.m.Size = end
	}
	f.v.mu.Unlock()
	// Data I/O happens outside the metadata lock.
	return f.v.dev.WriteAt(p, off)
}

// ReadBlock fills p from file block index i. p may be shorter than a
// block (e.g. the final partial block).
func (f *File) ReadBlock(i int64, p []byte) error {
	if len(p) > f.v.blockSize {
		return fmt.Errorf("msufs: read of %d bytes exceeds block size %d", len(p), f.v.blockSize)
	}
	f.v.mu.Lock()
	if f.m.deleted {
		f.v.mu.Unlock()
		return fmt.Errorf("%w: %s was removed", ErrNotFound, f.m.Name)
	}
	off, err := f.devOffsetLocked(i)
	f.v.mu.Unlock()
	if err != nil {
		return err
	}
	return f.v.dev.ReadAt(p, off)
}

// Locate maps file block index i to its physical volume and device
// byte offset — the coordinates a scheduler-submitted read addresses.
// The extent resolution happens under the metadata lock; the I/O
// itself does not.
func (f *File) Locate(i int64) (*Volume, int64, error) {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	if f.m.deleted {
		return nil, 0, fmt.Errorf("%w: %s was removed", ErrNotFound, f.m.Name)
	}
	off, err := f.devOffsetLocked(i)
	if err != nil {
		return nil, 0, err
	}
	return f.v, off, nil
}

// BlockLen reports how many valid bytes block i holds.
func (f *File) BlockLen(i int64) int {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	return validLen(f.m.Size, f.v.blockSize, i)
}

// validLen reports how many of a file's size valid bytes block i holds.
func validLen(size int64, blockSize int, i int64) int {
	n := size - i*int64(blockSize)
	if n <= 0 {
		return 0
	}
	if n > int64(blockSize) {
		n = int64(blockSize)
	}
	return int(n)
}

// Commit marks the file complete, trims any reservation beyond the
// valid size back to the free pool, and persists metadata. This is the
// paper's over-estimate reclamation (§2.2).
func (f *File) Commit() error {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	if f.m.deleted {
		return fmt.Errorf("%w: %s was removed", ErrNotFound, f.m.Name)
	}
	if f.m.Committed {
		return nil
	}
	keep := f.v.BlocksFor(f.m.Size)
	var kept []Extent
	var freed []Extent
	rem := keep
	for _, e := range f.m.Extents {
		switch {
		case rem >= e.Count:
			kept = append(kept, e)
			rem -= e.Count
		case rem > 0:
			kept = append(kept, Extent{Start: e.Start, Count: rem})
			freed = append(freed, Extent{Start: e.Start + rem, Count: e.Count - rem})
			rem = 0
		default:
			freed = append(freed, e)
		}
	}
	f.m.Extents = kept
	f.m.Committed = true
	if len(freed) > 0 {
		f.v.freeLocked(freed)
	}
	return f.v.flushLocked()
}

// Attrs returns a copy of the file's attributes.
func (f *File) Attrs() map[string]string {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	return withAttrs(f.m.Attrs, nil)
}
