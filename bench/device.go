package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"calliope/internal/blockdev"
)

// benchDev is the disk the bench puts under the MSU from outside
// (ClusterConfig.WrapDevice). Below it sits the cluster's memory
// device; beside it, when the workload wants a mechanical disk, a
// blockdev.Sim over the same memory. The gate chooses between them: it
// is shut while content is preloaded, so ingest is not paced by a 1996
// spindle, and opened before the first play. Every transfer is counted
// here, which is how the bench knows what the device did without asking
// the MSU.
type benchDev struct {
	mem  blockdev.BlockDevice
	sim  *blockdev.Sim // nil: memory-backed workload
	gate atomic.Bool   // open: preload is over, transfers go through sim and are traced

	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64

	// Traced runs only: per-transfer timings and disk.read spans.
	tr *tracer
	mu sync.Mutex
	// readTimes are service times (queueing on the spindle included).
	readTimes           sample
	readBusy, writeBusy time.Duration
	// firstRead is, per title, when its first read off the device
	// completed, for the play.first_page span.
	firstRead map[uint32]time.Duration
	// extents map device offsets to titles; built after preload.
	extents  []extent
	pageSize int64
}

// extent is a run of device bytes holding consecutive pages of one
// title, starting at page firstPage.
type extent struct {
	from, to  int64
	title     uint32
	firstPage int64
}

func newBenchDev(mem blockdev.BlockDevice, mechanical bool, seed int64, tr *tracer) *benchDev {
	d := &benchDev{mem: mem, tr: tr, firstRead: make(map[uint32]time.Duration)}
	if mechanical {
		cfg := blockdev.DefaultSimConfig()
		cfg.Seed = seed
		d.sim = blockdev.NewSim(mem, cfg)
	}
	return d
}

// openGate ends preload: the mechanical disk (if any) is on the path
// from here on.
func (d *benchDev) openGate() { d.gate.Store(true) }

// closeGate takes the mechanical disk off the path again, for offline
// verification after the measured window.
func (d *benchDev) closeGate() { d.gate.Store(false) }

// timings reports the traced transfers' service times (ascending) and
// the wall time spent inside reads and writes.
func (d *benchDev) timings() (reads sample, readBusy, writeBusy time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readTimes.sorted(), d.readBusy, d.writeBusy
}

// firstReads reports, per title, when its page 0 first came off the
// device (traced runs).
func (d *benchDev) firstReads() map[uint32]time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[uint32]time.Duration, len(d.firstRead))
	for k, v := range d.firstRead {
		out[k] = v
	}
	return out
}

func (d *benchDev) target() blockdev.BlockDevice {
	if d.sim != nil && d.gate.Load() {
		return d.sim
	}
	return d.mem
}

// ReadAt implements blockdev.BlockDevice.
func (d *benchDev) ReadAt(p []byte, off int64) error {
	d.reads.Add(1)
	d.readBytes.Add(int64(len(p)))
	if d.tr == nil {
		return d.target().ReadAt(p, off)
	}
	start := d.tr.now()
	err := d.target().ReadAt(p, off)
	d.noteRead(off, int64(len(p)), start, d.tr.now())
	return err
}

// ReadAtv implements blockdev.VectorReader, so the scheduler's
// coalesced transfers reach the Sim as one seek plus one transfer.
func (d *benchDev) ReadAtv(off int64, bufs ...[]byte) error {
	var total int64
	for _, b := range bufs {
		total += int64(len(b))
	}
	d.reads.Add(1)
	d.readBytes.Add(total)
	if d.tr == nil {
		return blockdev.ReadVector(d.target(), off, bufs...)
	}
	start := d.tr.now()
	err := blockdev.ReadVector(d.target(), off, bufs...)
	d.noteRead(off, total, start, d.tr.now())
	return err
}

// WriteAt implements blockdev.BlockDevice.
func (d *benchDev) WriteAt(p []byte, off int64) error {
	d.writes.Add(1)
	d.writeBytes.Add(int64(len(p)))
	if d.tr == nil {
		return d.target().WriteAt(p, off)
	}
	start := d.tr.now()
	err := d.target().WriteAt(p, off)
	if d.gate.Load() {
		end := d.tr.now()
		d.mu.Lock()
		d.writeBusy += end - start
		d.mu.Unlock()
	}
	return err
}

// Size implements blockdev.BlockDevice.
func (d *benchDev) Size() int64 { return d.mem.Size() }

// Close implements blockdev.BlockDevice.
func (d *benchDev) Close() error { return d.mem.Close() }

// noteRead records one traced transfer: its service time, and a
// disk.read span attributed to the title that owns the offset. A
// coalesced transfer can run on into the next title; whichever titles'
// page 0 it covers have had their first page read.
func (d *benchDev) noteRead(off, n int64, start, end time.Duration) {
	if !d.gate.Load() {
		return // preload traffic is not the workload's
	}
	sp := span{Name: "disk.read", Start: start, End: end, Bytes: n}
	d.mu.Lock()
	d.readTimes.addDur(end - start)
	d.readBusy += end - start
	ex := d.extents
	i := sort.Search(len(ex), func(i int) bool { return ex[i].to > off })
	if i < len(ex) && ex[i].from <= off {
		sp.Title, sp.HasTitle = ex[i].title, true
		sp.Page = ex[i].firstPage + (off-ex[i].from)/d.pageSize
	}
	for ; i < len(ex) && ex[i].from < off+n; i++ {
		if _, done := d.firstRead[ex[i].title]; !done && ex[i].firstPage == 0 && ex[i].from >= off {
			d.firstRead[ex[i].title] = end
		}
	}
	d.mu.Unlock()
	d.tr.add(sp)
}

// setExtents installs the offset→title map.
func (d *benchDev) setExtents(ex []extent, pageSize int64) {
	sort.Slice(ex, func(i, j int) bool { return ex[i].from < ex[j].from })
	d.mu.Lock()
	d.extents, d.pageSize = ex, pageSize
	d.mu.Unlock()
}

// devCounters is a snapshot of what the device has done.
type devCounters struct {
	blockdev.IOStats
	simOps, simSeekBytes int64
	// busy is the time the device spent on transfers: the Sim's
	// mechanical time on a mechanical disk, the wrapper's own timings
	// (traced runs only) on a memory one.
	busy time.Duration
}

func (d *benchDev) counters() devCounters {
	c := devCounters{IOStats: blockdev.IOStats{
		Reads: d.reads.Load(), Writes: d.writes.Load(),
		BytesRead: d.readBytes.Load(), BytesWritten: d.writeBytes.Load(),
	}}
	if d.sim != nil {
		c.simOps, c.simSeekBytes, c.busy = d.sim.Ops(), d.sim.SeekBytes(), d.sim.BusyTime()
	} else {
		d.mu.Lock()
		c.busy = d.readBusy + d.writeBusy
		d.mu.Unlock()
	}
	return c
}

func (c devCounters) sub(p devCounters) devCounters {
	return devCounters{
		IOStats: c.IOStats.Sub(p.IOStats),
		simOps:  c.simOps - p.simOps, simSeekBytes: c.simSeekBytes - p.simSeekBytes,
		busy: c.busy - p.busy,
	}
}
