package faultinject

import (
	"fmt"
	"sync"

	"calliope/internal/blockdev"
)

// Device wraps a block device and fails reads/writes that touch armed
// block ranges — a dying disk region under the MSU file system, or,
// armed over every block, a whole disk that has died. Faults surface as
// blockdev.ErrInjected so msufs and the MSU treat them like any other
// I/O error.
type Device struct {
	blockdev.BlockDevice
	blockSize int64

	mu     sync.Mutex
	reads  []blockRange
	writes []blockRange
}

type blockRange struct{ start, count int64 }

func (r blockRange) contains(b int64) bool { return b >= r.start && b < r.start+r.count }

// NewDevice wraps dev; blockSize is the granularity fault ranges are
// expressed in (use the file system's block size).
func NewDevice(dev blockdev.BlockDevice, blockSize int) (*Device, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("faultinject: invalid block size %d", blockSize)
	}
	return &Device{BlockDevice: dev, blockSize: int64(blockSize)}, nil
}

// FailReads arms read faults over [start, start+count) blocks.
func (d *Device) FailReads(start, count int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads = append(d.reads, blockRange{start, count})
}

// FailWrites arms write faults over [start, start+count) blocks.
func (d *Device) FailWrites(start, count int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes = append(d.writes, blockRange{start, count})
}

// Heal clears every armed range.
func (d *Device) Heal() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads, d.writes = nil, nil
}

// hit reports whether the byte span [off, off+n) touches an armed
// range.
func (d *Device) hit(ranges []blockRange, off int64, n int) (int64, bool) {
	if n <= 0 {
		return 0, false
	}
	first := off / d.blockSize
	last := (off + int64(n) - 1) / d.blockSize
	for _, r := range ranges {
		for b := first; b <= last; b++ {
			if r.contains(b) {
				return b, true
			}
		}
	}
	return 0, false
}

// ReadAt implements blockdev.BlockDevice with range faults.
func (d *Device) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	b, bad := d.hit(d.reads, off, len(p))
	d.mu.Unlock()
	if bad {
		return fmt.Errorf("%w: read in faulted block %d", blockdev.ErrInjected, b)
	}
	return d.BlockDevice.ReadAt(p, off)
}

// WriteAt implements blockdev.BlockDevice with range faults.
func (d *Device) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	b, bad := d.hit(d.writes, off, len(p))
	d.mu.Unlock()
	if bad {
		return fmt.Errorf("%w: write in faulted block %d", blockdev.ErrInjected, b)
	}
	return d.BlockDevice.WriteAt(p, off)
}
