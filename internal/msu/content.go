package msu

import (
	"encoding/json"
	"fmt"
	"time"

	"calliope/internal/core"
	"calliope/internal/ibtree"
	"calliope/internal/iosched"
	"calliope/internal/msufs"
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
	// Held across the open: a concurrent dropContent (which follows the
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
	tree, err := treeFromAttrs(file, store.BlockSize())
	if err != nil {
		return nil, err
	}
	c := &content{tree: tree, file: file}
	m.contents[key] = c
	return c, nil
}

// dropContent forgets a file's shared handle, and with it the resident
// index. Call it after removing the file: whatever is recorded or
// replicated under that name next is different bytes.
func (m *MSU) dropContent(disk int, name string) {
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

// treeFromAttrs opens the IB-tree described by a file's attributes,
// reading through the file as given.
func treeFromAttrs(file msufs.StoreFile, blockSize int) (*ibtree.Tree, error) {
	raw, ok := file.Attrs()[AttrTree]
	if !ok {
		return nil, fmt.Errorf("msu: %q has no ibtree metadata", file.Name())
	}
	var meta ibtree.Meta
	if err := json.Unmarshal([]byte(raw), &meta); err != nil {
		return nil, fmt.Errorf("msu: %q ibtree metadata: %w", file.Name(), err)
	}
	return ibtree.Open(file, blockSize, meta)
}
