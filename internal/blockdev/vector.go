package blockdev

// A VectorReader is a device that can fill several destination buffers
// from one contiguous device region in a single transfer: bufs[0] is
// read at off, bufs[1] right after it, and so on. The I/O scheduler
// (internal/iosched) uses it to coalesce device-adjacent page requests
// into one large read that still scatters into each request's own
// refcounted page — the zero-copy contract holds because the device
// writes straight into the callers' buffers.
type VectorReader interface {
	ReadAtv(off int64, bufs ...[]byte) error
}

// ReadVector reads bufs from dev at consecutive offsets starting at
// off, as a single transfer when dev implements VectorReader and as
// sequential ReadAt calls otherwise. The fallback keeps per-buffer
// fault injection working: a wrapper that fails individual reads (e.g.
// faultinject.Device) deliberately does not implement VectorReader, so
// each coalesced request still passes through its fault check.
func ReadVector(dev BlockDevice, off int64, bufs ...[]byte) error {
	if vr, ok := dev.(VectorReader); ok {
		return vr.ReadAtv(off, bufs...)
	}
	for _, b := range bufs {
		if err := dev.ReadAt(b, off); err != nil {
			return err
		}
		off += int64(len(b))
	}
	return nil
}

// ReadAtv implements VectorReader with accounting: one coalesced
// transfer counts as a single read of the total byte count, which is
// exactly what the scheduler benches assert.
func (c *Counting) ReadAtv(off int64, bufs ...[]byte) error {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	c.Reads.Add(1)
	c.BytesRead.Add(total)
	return ReadVector(c.BlockDevice, off, bufs...)
}
