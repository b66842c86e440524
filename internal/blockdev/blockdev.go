// Package blockdev abstracts the raw disks under the MSU file system.
//
// The paper's MSU bypasses the BSD fast file system and issues raw disk
// I/O (§2.3.3). Here a BlockDevice is that raw device: a flat array of
// bytes addressed by offset. Implementations include an in-memory disk
// (tests, benchmarks, examples), a file-backed disk (persistence), and
// wrappers that inject faults or account for I/O, so the MSU and file
// system can be exercised under failure.
package blockdev

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Common device errors.
var (
	ErrOutOfRange = errors.New("blockdev: I/O beyond device size")
	ErrClosed     = errors.New("blockdev: device closed")
	ErrInjected   = errors.New("blockdev: injected fault")
)

// A BlockDevice is a raw random-access device. Implementations must be
// safe for concurrent use; the MSU issues one I/O per disk at a time,
// but tests and the striped layout do not.
type BlockDevice interface {
	// ReadAt reads len(p) bytes at offset off. Short reads are errors.
	ReadAt(p []byte, off int64) error
	// WriteAt writes len(p) bytes at offset off. Short writes are errors.
	WriteAt(p []byte, off int64) error
	// Size reports the device capacity in bytes.
	Size() int64
	// Close releases the device.
	Close() error
}

// Mem is an in-memory BlockDevice.
type Mem struct {
	mu     sync.RWMutex
	data   []byte
	closed bool
}

// NewMem returns an in-memory device of the given size.
func NewMem(size int64) (*Mem, error) {
	if size <= 0 {
		return nil, fmt.Errorf("blockdev: invalid size %d", size)
	}
	return &Mem{data: make([]byte, size)}, nil
}

func (m *Mem) check(n int, off int64) error {
	if m.closed {
		return ErrClosed
	}
	if off < 0 || off+int64(n) > int64(len(m.data)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, len(m.data))
	}
	return nil
}

// ReadAt implements BlockDevice.
func (m *Mem) ReadAt(p []byte, off int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.check(len(p), off); err != nil {
		return err
	}
	copy(p, m.data[off:])
	return nil
}

// WriteAt implements BlockDevice.
func (m *Mem) WriteAt(p []byte, off int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.check(len(p), off); err != nil {
		return err
	}
	copy(m.data[off:], p)
	return nil
}

// Size implements BlockDevice.
func (m *Mem) Size() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.data))
}

// Close implements BlockDevice.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// File is a BlockDevice backed by a regular file (or a real raw device
// node, where the OS permits).
type File struct {
	f    *os.File
	size int64
}

// OpenFile opens (creating and truncating to size if needed) a
// file-backed device.
func OpenFile(path string, size int64) (*File, error) {
	if size <= 0 {
		return nil, fmt.Errorf("blockdev: invalid size %d", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockdev: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockdev: stat %s: %w", path, err)
	}
	if st.Size() != size {
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("blockdev: truncate %s: %w", path, err)
		}
	}
	return &File{f: f, size: size}, nil
}

// ReadAt implements BlockDevice.
func (d *File) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > d.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, len(p), d.size)
	}
	if _, err := d.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("blockdev: read: %w", err)
	}
	return nil
}

// WriteAt implements BlockDevice.
func (d *File) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > d.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, len(p), d.size)
	}
	if _, err := d.f.WriteAt(p, off); err != nil {
		return fmt.Errorf("blockdev: write: %w", err)
	}
	return nil
}

// Size implements BlockDevice.
func (d *File) Size() int64 { return d.size }

// Close implements BlockDevice.
func (d *File) Close() error { return d.f.Close() }

// IOStats is a point-in-time snapshot of a device's operation and
// byte counters. Tests and benches take one before and one after a
// workload and diff them — e.g. to assert how many disk reads the RAM
// interval cache saved.
type IOStats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
}

// Sub returns the counter deltas since an earlier snapshot.
func (s IOStats) Sub(prev IOStats) IOStats {
	return IOStats{
		Reads:        s.Reads - prev.Reads,
		Writes:       s.Writes - prev.Writes,
		BytesRead:    s.BytesRead - prev.BytesRead,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
	}
}

// A StatReader is a device that can report I/O counters. Counting
// implements it; wrappers that embed a counted device may forward it.
type StatReader interface {
	Stats() IOStats
}

// Counting wraps a device and tallies operations and bytes, used by the
// benchmarks to verify I/O patterns (e.g. that an IB-tree write is a
// single transfer) and by the cache tests to count reads saved.
type Counting struct {
	BlockDevice
	Reads, Writes           atomic.Int64
	BytesRead, BytesWritten atomic.Int64
}

// NewCounting wraps dev with I/O accounting.
func NewCounting(dev BlockDevice) *Counting {
	return &Counting{BlockDevice: dev}
}

// ReadAt implements BlockDevice with accounting.
func (c *Counting) ReadAt(p []byte, off int64) error {
	c.Reads.Add(1)
	c.BytesRead.Add(int64(len(p)))
	return c.BlockDevice.ReadAt(p, off)
}

// WriteAt implements BlockDevice with accounting.
func (c *Counting) WriteAt(p []byte, off int64) error {
	c.Writes.Add(1)
	c.BytesWritten.Add(int64(len(p)))
	return c.BlockDevice.WriteAt(p, off)
}

// Stats snapshots the counters (StatReader).
func (c *Counting) Stats() IOStats {
	return IOStats{
		Reads:        c.Reads.Load(),
		Writes:       c.Writes.Load(),
		BytesRead:    c.BytesRead.Load(),
		BytesWritten: c.BytesWritten.Load(),
	}
}

// Reset zeroes the counters, isolating the next measurement window.
func (c *Counting) Reset() {
	c.Reads.Store(0)
	c.Writes.Store(0)
	c.BytesRead.Store(0)
	c.BytesWritten.Store(0)
}
