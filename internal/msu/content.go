package msu

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"calliope/internal/cache"
	"calliope/internal/core"
	"calliope/internal/ibtree"
	"calliope/internal/iosched"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
)

// The MSU keeps "metadata fully cached in memory" (§2.3.3). For content
// that is the IB-tree's index: every stream of a file shares one
// *ibtree.Tree, whose memo holds each internal page a seek has walked
// through, decoded, for as long as the file's bytes stay what they were.
// Nothing is read when a file is opened — a play from the start needs no
// index at all (§2.2.1) — so the index costs only the seeks that use it,
// once each.
//
// The rule the MSU keeps: no read of a store file reaches a device
// except through that volume's scheduler. submitRead is the one place a
// block is located and queued, so a player's prefetch, an index miss, a
// replica's read-back and a copy-out all wait behind the same elevator,
// and the scheduler's idea of where the head is stays true.

// The way onto the disk is as narrow: ingest, a recording and an inbound
// replica all write through a fileSet. A file short of its publishing
// write is garbage by definition: contentType refuses it everywhere and
// the next New sweeps it away.

// contentType is the one rule for "is this file content?": the type it
// was published under, or "" for a file still being written, one whose
// publishing write never landed, or a fast-scan companion.
func contentType(fi msufs.FileInfo) string {
	if !fi.Committed || fi.Attrs[AttrFastRole] != "" {
		return ""
	}
	return fi.Attrs[AttrType]
}

// itemFiles lists a published item's files: title, then linked companions.
func itemFiles(fi msufs.FileInfo) []string {
	names := []string{fi.Name}
	for _, companion := range []string{fi.Attrs[AttrFastFwd], fi.Attrs[AttrFastBack]} {
		if companion != "" {
			names = append(names, companion)
		}
	}
	return names
}

// fileSet is the files of one item on their way onto (or off) one store.
// m is nil offline, where no MSU's RAM holds anything of them.
type fileSet struct {
	m     *MSU
	disk  int
	store msufs.Store
	names []string // every file created, in creation order
}

// create reserves a file with no attributes: invisible until publish.
func (s *fileSet) create(name string, reserve int64) (msufs.StoreFile, error) {
	f, err := s.store.Create(name, reserve, nil)
	if err == nil {
		s.names = append(s.names, name)
	}
	return f, err
}

// publish makes a filled file what attrs say it is: Commit trims and
// fixes the blocks, the one write after it is where visibility flips.
func (s *fileSet) publish(f msufs.StoreFile, attrs map[string]string) error {
	if err := f.Commit(); err != nil {
		return fmt.Errorf("msu: committing %q: %w", f.Name(), err)
	}
	if err := s.store.SetAttrs(f.Name(), attrs); err != nil {
		return fmt.Errorf("msu: publishing %q: %w", f.Name(), err)
	}
	return nil
}

// abort removes every file of the set, freeing its blocks, and purges
// what RAM holds of them. A file already gone is not an error.
func (s *fileSet) abort() error {
	var first error
	for _, name := range s.names {
		if err := s.store.Remove(name); err != nil && !errors.Is(err, msufs.ErrNotFound) && first == nil {
			first = err
		}
		if s.m != nil {
			s.m.forgetFile(s.disk, name)
		}
	}
	return first
}

// packetWriter fills one file of a set through an IB-tree builder.
type packetWriter struct {
	set  *fileSet
	file msufs.StoreFile
	b    *ibtree.Builder
}

// packets creates a file of the set to be filled with packets.
func (s *fileSet) packets(name string, reserve int64) (*packetWriter, error) {
	f, err := s.create(name, reserve)
	if err != nil {
		return nil, err
	}
	b, err := ibtree.NewBuilder(f, s.store.BlockSize(), 0)
	return &packetWriter{set: s, file: f, b: b}, err
}

// append stores one packet at delivery time t; times must not decrease.
// The record is framed in the builder's page, so the payload is copied
// once on its way to the device and nothing is allocated.
func (w *packetWriter) append(t time.Duration, ch protocol.Channel, payload []byte) error {
	rec, err := w.b.Reserve(t, 1+len(payload))
	if err == nil {
		protocol.PutStored(rec, ch, payload)
	}
	return err
}

// publish closes the tree and publishes the file as content of type typ.
func (w *packetWriter) publish(typ string, extra map[string]string) (ibtree.Meta, error) {
	meta, err := w.b.Finalize()
	if err != nil {
		return meta, err
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		return meta, err
	}
	attrs := map[string]string{AttrType: typ, AttrTree: string(raw), AttrLength: strconv.FormatInt(int64(meta.Length), 10)}
	for k, v := range extra {
		attrs[k] = v
	}
	return meta, w.set.publish(w.file, attrs)
}

// checkLayout refuses volumes that were written under the other layout
// than the one they are about to be served under, naming a file that shows
// it. Served per volume, a striped title's anchor parts would pass for a
// title (every other page of it) and the sweep would remove the rest;
// served striped, titles written per volume would list without their
// attributes and the sweep would remove them whole. So New asks before
// the sweep touches anything.
func checkLayout(vols []*msufs.Volume, striped bool) error {
	for i, v := range vols {
		for _, fi := range v.List() {
			_, part := fi.Attrs[msufs.AttrStripeSize]
			switch {
			case part && !striped:
				return fmt.Errorf("msu: volume %d holds %q, a part of a striped file: serve the stripe's volumes together, with Striped set", i, fi.Name)
			case striped && !part && contentType(fi) != "":
				return fmt.Errorf("msu: volume %d holds %q, written to that volume alone: serve it without Striped", i, fi.Name)
			}
		}
	}
	return nil
}

// sweep clears a store of what is not content and no content links to (a
// crashed recording's reservation, a partial replica, orphaned companions).
// New runs it before anything registers, opens or writes: what it finds
// was left by a process that is no more.
func (m *MSU) sweep(disk int) {
	files := m.stores[disk].List()
	keep := make(map[string]bool)
	for _, fi := range files {
		if contentType(fi) != "" {
			for _, name := range itemFiles(fi) {
				keep[name] = true
			}
		}
	}
	junk := fileSet{m: m, disk: disk, store: m.stores[disk]}
	for _, fi := range files {
		if !keep[fi.Name] {
			junk.names = append(junk.names, fi.Name)
		}
	}
	if len(junk.names) > 0 {
		m.logf("disk %d: sweeping unpublished files %q", disk, junk.names)
		if err := junk.abort(); err != nil {
			m.logf("disk %d: sweep: %v", disk, err)
		}
	}
}

// content is one opened content file: what its streams share.
type content struct {
	tree *ibtree.Tree
	file msufs.StoreFile
}

type contentKey struct {
	disk int
	name string
}

// openContent returns the shared handle on a file of one logical disk,
// opening it on first use. An open that fails is not remembered.
func (m *MSU) openContent(disk int, name string) (*content, error) {
	key := contentKey{disk, name}
	// Held across the open: a concurrent forgetFile (which follows the
	// file's removal) then runs either before the open, which fails, or
	// after the insert, which it undoes.
	m.contentMu.Lock()
	defer m.contentMu.Unlock()
	if c := m.contents[key]; c != nil {
		return c, nil
	}
	store := m.stores[disk]
	file, err := store.Open(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", core.ErrNoSuchContent, name)
	}
	file = schedFile{file, m}
	tree, err := treeFromAttrs(file, file.Attrs(), store.BlockSize())
	if err != nil {
		return nil, err
	}
	c := &content{tree: tree, file: file}
	m.contents[key] = c
	return c, nil
}

// forgetFile drops what RAM holds of a file just removed, cached pages,
// shared index handle and head: what that name holds next is different
// bytes.
func (m *MSU) forgetFile(disk int, name string) {
	if c := m.cacheFor(disk); c != nil {
		c.Drop(name)
	}
	m.contentMu.Lock()
	delete(m.contents, contentKey{disk, name})
	m.heads[disk].drop(&m.obs, name)
	m.contentMu.Unlock()
}

// The other thing kept beside the handles is the head of each title: the
// first eighth of its data page 0 (headFraction), which is what a viewer's
// first packets are cut from. A player starting at page 0 of a title whose
// head is resident copies it into its first page and asks the disk for the
// rest only (fetcher.issueOne), so its start waits for no arm. New loads
// the heads of what is published; a title that arrives later (a recording,
// a replica, an offline ingest) starts head first once and leaves its head
// behind when its page 0 is first in RAM whole (keepHead). A file with a
// player is never removed (deleteContent), so the bytes kept under a name
// are the bytes of the file that has it.

// headSet is one logical disk's resident heads, guarded by contentMu.
type headSet struct {
	size int // bytes in a head
	// max bounds the set with no knob: a quarter of the disk's cache
	// budget, on top of it, and nothing with the cache off. Over it the
	// title least recently started from loses its head, and starts head
	// first like a title that never had one.
	max    int
	tick   uint64
	byName map[string]*head
}

type head struct {
	bytes   []byte // not written once stored: a start copies from it unlocked
	started uint64 // the set's tick when it was kept or last started from
}

// buildHeads sizes each disk's head set from its cache.
func buildHeads(stores []msufs.Store, caches []*cache.Cache) []headSet {
	sets := make([]headSet, len(stores))
	for i, store := range stores {
		sets[i] = headSet{size: store.BlockSize() / headFraction, byName: make(map[string]*head)}
		if c := caches[i]; c != nil {
			sets[i].max = c.Pages() * c.PageSize() / 4 / sets[i].size
		}
	}
	return sets
}

func (hs *headSet) drop(om *msuMetrics, name string) {
	if hs.byName[name] != nil {
		delete(hs.byName, name)
		om.heads.Add(-1)
		om.headBytes.Add(-int64(hs.size))
	}
}

// residentHead is the head of a title a player is about to start from, or
// nil when the title has none.
func (m *MSU) residentHead(disk int, name string) []byte {
	hs := &m.heads[disk]
	m.contentMu.Lock()
	defer m.contentMu.Unlock()
	h := hs.byName[name]
	if h == nil {
		return nil
	}
	hs.tick++
	h.started = hs.tick
	return h.bytes
}

// keepHead keeps the head of a title that has none, off its page 0.
func (m *MSU) keepHead(disk int, name string, page0 []byte) {
	hs := &m.heads[disk]
	if hs.max == 0 {
		return
	}
	m.contentMu.Lock()
	defer m.contentMu.Unlock()
	if hs.byName[name] != nil {
		return
	}
	if len(hs.byName) >= hs.max {
		var oldest string
		for n, h := range hs.byName {
			if oldest == "" || h.started < hs.byName[oldest].started {
				oldest = n
			}
		}
		hs.drop(&m.obs, oldest)
	}
	hs.tick++
	hs.byName[name] = &head{bytes: append([]byte(nil), page0[:hs.size]...), started: hs.tick}
	m.obs.heads.Add(1)
	m.obs.headBytes.Add(int64(hs.size))
}

// loadHeads reads the head of every title published on a disk, as far as
// the set has room, so that what the MSU is about to declare it can start
// from RAM. The reads are queued together: the elevator sorts them.
func (m *MSU) loadHeads(disk int) {
	hs := &m.heads[disk]
	var names []string
	for _, fi := range m.stores[disk].List() {
		if len(names) == hs.max {
			break
		}
		if contentType(fi) != "" {
			names = append(names, fi.Name)
		}
	}
	reqs := make([]iosched.Request, len(names))
	done := make(chan *iosched.Request, len(names)) // one completion a title
	for i, name := range names {
		reqs[i] = iosched.Request{Buf: make([]byte, hs.size), C: done}
		f, err := m.stores[disk].Open(name)
		if err == nil {
			err = m.submitRead(f, 0, 0, &reqs[i])
		}
		if err != nil {
			reqs[i].Err = err
			done <- &reqs[i]
		}
	}
	for range names {
		<-done
	}
	for i, name := range names {
		if err := reqs[i].Err; err != nil {
			m.logf("disk %d: head of %q: %v", disk, name, err)
			continue
		}
		m.keepHead(disk, name, reqs[i].Buf)
	}
}

// submitRead is how a block of a store file reaches RAM on this MSU — or
// the rest of it from skip bytes in: it is located on its physical volume
// and queued on that volume's scheduler, as reqs laid end to end from
// there and submitted together. Buf, Deadline and C are the caller's; a
// request comes back on its C when the device is done with its Buf. An
// error means nothing was queued.
func (m *MSU) submitRead(f msufs.StoreFile, block int64, skip int, reqs ...*iosched.Request) error {
	vol, off, err := f.Locate(block)
	if err != nil {
		return err
	}
	off += int64(skip)
	for _, r := range reqs {
		r.Off = off
		off += int64(len(r.Buf))
	}
	m.scheds[vol].Submit(reqs...)
	return nil
}

// readBlock is submitRead, waited for.
func (m *MSU) readBlock(f msufs.StoreFile, block int64, buf []byte, deadline time.Time) error {
	req := iosched.Request{Buf: buf, Deadline: deadline, C: make(chan *iosched.Request, 1)}
	if err := m.submitRead(f, block, 0, &req); err != nil {
		return err
	}
	<-req.C
	return req.Err
}

// schedFile is the BlockFile a shared tree reads through: a block read
// carries no deadline, which sorts it ahead of every prefetch — a viewer
// is waiting on it.
type schedFile struct {
	msufs.StoreFile
	m *MSU
}

func (f schedFile) ReadBlock(i int64, p []byte) error {
	return f.m.readBlock(f.StoreFile, i, p, time.Time{})
}

// treeFromAttrs opens the IB-tree attrs describe (the file's own, or
// those a replica is about to be published with), reading through the
// file as given.
func treeFromAttrs(file msufs.StoreFile, attrs map[string]string, blockSize int) (*ibtree.Tree, error) {
	raw, ok := attrs[AttrTree]
	if !ok {
		return nil, fmt.Errorf("msu: %q has no ibtree metadata", file.Name())
	}
	var meta ibtree.Meta
	if err := json.Unmarshal([]byte(raw), &meta); err != nil {
		return nil, fmt.Errorf("msu: %q ibtree metadata: %w", file.Name(), err)
	}
	return ibtree.Open(file, blockSize, meta)
}
