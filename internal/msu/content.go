package msu

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

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
func (w *packetWriter) append(t time.Duration, ch protocol.Channel, payload []byte) error {
	return w.b.Append(ibtree.Packet{Time: t, Payload: protocol.EncodeStored(ch, payload)})
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

// forgetFile drops what RAM holds of a file just removed, cached pages and
// shared index handle: what that name holds next is different bytes.
func (m *MSU) forgetFile(disk int, name string) {
	if c := m.cacheFor(disk); c != nil {
		c.Drop(name)
	}
	m.contentMu.Lock()
	delete(m.contents, contentKey{disk, name})
	m.contentMu.Unlock()
}

// submitRead is how a block of a store file reaches RAM on this MSU: it
// is located on its physical volume and queued on that volume's
// scheduler. Buf, Deadline and C are the caller's; the request comes
// back on C when the device is done with Buf. An error means nothing
// was queued.
func (m *MSU) submitRead(f msufs.StoreFile, block int64, req *iosched.Request) error {
	vol, off, err := f.Locate(block)
	if err != nil {
		return err
	}
	req.Off = off
	m.scheds[vol].Submit(req)
	return nil
}

// readBlock is submitRead, waited for.
func (m *MSU) readBlock(f msufs.StoreFile, block int64, buf []byte, deadline time.Time) error {
	req := iosched.Request{Buf: buf, Deadline: deadline, C: make(chan *iosched.Request, 1)}
	if err := m.submitRead(f, block, &req); err != nil {
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
