// Package simhw models the paper's 1996 testbed as a deterministic
// discrete-event simulation: a 66 MHz Pentium PC (Micron) running
// FreeBSD 2.0.5 with BusLogic EISA SCSI host bus adaptors, 2 GB Seagate
// Barracuda disks, and a DEC DEFPA PCI FDDI interface.
//
// We do not have that hardware, so this package is the substrate
// substitution DESIGN.md documents. It models the mechanisms the paper
// identifies as governing performance:
//
//   - the disk: seek curve + rotational latency + media transfer, with
//     large transfers reaching ~70 % of the media rate (§2.3.3);
//   - the SCSI bus: per-HBA burst transfers that serialize across the
//     disks sharing a chain;
//   - the memory system: read 53 / write 25 / copy 18 MB/s (§3.2.3),
//     shared FIFO between disk DMA and the network send path, with a
//     penalty when different clients interleave (the instruction-cache
//     flushing the paper blames for 6.3 vs 7.5 MB/s);
//   - the host: per-packet CPU cost for the UDP send path, and the
//     EISA programmed-I/O stall bug of §3.1 — "in" and "out"
//     instructions take ~4 µs normally, occasionally ~1 ms with one
//     HBA active, and often ~20 ms with two — which throttles both
//     I/O issue and the network path as disk activity grows;
//   - the 10 ms FreeBSD timer granularity (§2.2.1).
//
// Constants are calibrated so the model lands near Table 1; the
// calibration is asserted by this package's tests and reported
// experiment-by-experiment in EXPERIMENTS.md.
package simhw

import (
	"math"
	"math/rand"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/sim"
	"calliope/internal/units"
)

// Config holds the machine's calibration constants.
type Config struct {
	// Disk mechanism.
	blockdev.Mechanism
	DiskBlocks int64 // addressable span used for seek distances

	// SCSI bus (per HBA).
	BusRate        units.BitRate // burst rate disk buffer → host
	BusArbitration time.Duration // per-transfer arbitration/selection overhead

	// Memory system (§3.2.3).
	MemReadRate      units.BitRate
	MemWriteRate     units.BitRate
	MemCopyRate      units.BitRate
	MemSwitchPenalty time.Duration // extra cost when ownership alternates

	// Network send path.
	PerPacketCPU time.Duration // syscall + protocol processing per UDP packet
	WireRate     units.BitRate // FDDI wire speed

	// Host contention: extra per-disk-request issue/interrupt cost for
	// every other concurrently active disk, and a smaller term when the
	// network path is also hot.
	IssuePerActiveDisk time.Duration
	IssueNICActive     time.Duration

	// EISA PIO stall bug (§3.1).
	PIONormal        time.Duration // in/out sequence, quiescent bus
	StallOneHBA      time.Duration // stall magnitude with one active HBA
	StallTwoHBA      time.Duration // stall magnitude with two active HBAs
	PStallOneHBA     float64       // per-packet probability, scaled by active disks
	PStallTwoHBA     float64       // per-packet probability, scaled by active disks
	TimerGranularity time.Duration // FreeBSD timer tick

	Seed int64
}

// DefaultConfig returns constants calibrated against Table 1 and the
// §3.1–3.2.3 measurements.
func DefaultConfig() Config {
	return Config{
		Mechanism:  blockdev.Barracuda(),
		DiskBlocks: 8192, // 2 GB in 256 KB blocks

		BusRate:        80 * units.Mbps, // 10 MB/s fast SCSI
		BusArbitration: time.Millisecond,

		MemReadRate:      53 * 8 * units.Mbps,
		MemWriteRate:     25 * 8 * units.Mbps,
		MemCopyRate:      18 * 8 * units.Mbps,
		MemSwitchPenalty: 0,

		PerPacketCPU: 100 * time.Microsecond,
		WireRate:     100 * units.Mbps, // FDDI

		IssuePerActiveDisk: 18 * time.Millisecond,
		IssueNICActive:     5 * time.Millisecond,

		PIONormal:        4 * time.Microsecond,
		StallOneHBA:      time.Millisecond,
		StallTwoHBA:      20 * time.Millisecond,
		PStallOneHBA:     0.1,
		PStallTwoHBA:     0.023,
		TimerGranularity: 10 * time.Millisecond,

		Seed: 1,
	}
}

// Machine is one simulated MSU host.
type Machine struct {
	Eng *sim.Engine
	cfg Config
	rng *rand.Rand

	membus          *sim.Resource
	lastMemOwner    string
	hbas            []*HBA
	disks           []*Disk
	nic             *NIC
	timerFixApplied bool
}

// NewMachine builds an empty machine (no HBAs, disks; NIC installed).
func NewMachine(cfg Config) *Machine {
	m := &Machine{
		Eng: sim.New(),
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	m.membus = sim.NewResource(m.Eng)
	m.nic = &NIC{m: m, wire: sim.NewResource(m.Eng)}
	return m
}

// Config returns the machine's calibration.
func (m *Machine) Config() Config { return m.cfg }

// NIC returns the FDDI interface.
func (m *Machine) NIC() *NIC { return m.nic }

// AddHBA installs a SCSI host bus adaptor.
func (m *Machine) AddHBA() *HBA {
	h := &HBA{m: m, res: sim.NewResource(m.Eng)}
	m.hbas = append(m.hbas, h)
	return h
}

// AddDisk attaches a disk to an HBA.
func (m *Machine) AddDisk(h *HBA) *Disk {
	d := &Disk{m: m, hba: h, policy: FIFO}
	m.disks = append(m.disks, d)
	h.disks = append(h.disks, d)
	return d
}

// Disks returns the installed disks.
func (m *Machine) Disks() []*Disk { return m.disks }

// activeHBAs counts HBAs with in-flight requests.
func (m *Machine) activeHBAs() int {
	n := 0
	for _, h := range m.hbas {
		if h.active > 0 {
			n++
		}
	}
	return n
}

// activeDisks counts disks with in-flight requests.
func (m *Machine) activeDisks() int {
	n := 0
	for _, d := range m.disks {
		if d.inflight > 0 {
			n++
		}
	}
	return n
}

// memOpF submits one memory-system operation on behalf of owner; its
// base duration is computed at dispatch. Ownership changes pay the
// switch penalty (cache-refill effects). On a 66 MHz machine the CPU's
// instruction stream also flows through this bus, so per-packet CPU
// costs are charged here too.
func (m *Machine) memOpF(owner string, f func() time.Duration, done func()) {
	m.membus.Submit(func() time.Duration {
		d := f()
		if m.lastMemOwner != owner && m.lastMemOwner != "" {
			d += m.cfg.MemSwitchPenalty
		}
		m.lastMemOwner = owner
		return d
	}, done)
}

// memOp is memOpF with a fixed duration.
func (m *Machine) memOp(owner string, d time.Duration, done func()) {
	m.memOpF(owner, func() time.Duration { return d }, done)
}

// MemOp submits one memory-system operation of duration d on behalf of
// owner, calling done at completion. Exposed for workload models (e.g.
// the MSU's own per-packet user-level work) that share the memory
// system with the kernel data path.
func (m *Machine) MemOp(owner string, d time.Duration, done func()) { m.memOp(owner, d, done) }

// memSeq runs a sequence of memory operations for one owner, then done.
func (m *Machine) memSeq(owner string, ds []time.Duration, done func()) {
	if len(ds) == 0 {
		done()
		return
	}
	m.memOp(owner, ds[0], func() { m.memSeq(owner, ds[1:], done) })
}

// pioStallNIC samples the EISA stall added to one network-path
// operation given current disk activity (§3.1).
func (m *Machine) pioStallNIC() time.Duration {
	nd := m.activeDisks()
	if nd == 0 {
		return 0
	}
	switch {
	case m.activeHBAs() >= 2:
		if m.rng.Float64() < m.cfg.PStallTwoHBA*float64(nd) {
			return m.cfg.StallTwoHBA
		}
	case m.activeHBAs() == 1:
		if m.rng.Float64() < m.cfg.PStallOneHBA*float64(nd) {
			return m.cfg.StallOneHBA
		}
	}
	return 0
}

// TimerRead samples the latency of the "sequence of instructions
// needed to read the hardware timer" (§3.1): ~4 µs quiescent,
// occasionally ~1 ms with one HBA running, often ~20 ms with two. This
// is experiment E3.
func (m *Machine) TimerRead() time.Duration {
	switch {
	case m.activeHBAs() >= 2:
		if m.rng.Float64() < 0.5 { // "often took 20 milliseconds"
			return m.cfg.StallTwoHBA
		}
		if m.rng.Float64() < 0.3 {
			return m.cfg.StallOneHBA
		}
	case m.activeHBAs() == 1:
		if m.rng.Float64() < 0.05 { // "occasionally took a millisecond"
			return m.cfg.StallOneHBA
		}
	}
	return m.cfg.PIONormal
}

// ApplyTimerFix switches timekeeping to the Pentium cycle counter, the
// paper's workaround: missed clock interrupts no longer corrupt time of
// day. In the model this only matters to TimerRead's use as a clock
// source; the MSU pacing keeps its 10 ms granularity either way.
func (m *Machine) ApplyTimerFix() { m.timerFixApplied = true }

// TimerFixApplied reports whether the cycle-counter workaround is on.
func (m *Machine) TimerFixApplied() bool { return m.timerFixApplied }

// NextTick rounds t up to the next timer tick — FreeBSD's 10 ms
// granularity, which quantizes every sleep-based packet schedule.
func (m *Machine) NextTick(t time.Duration) time.Duration {
	g := m.cfg.TimerGranularity
	if g <= 0 {
		return t
	}
	if rem := t % g; rem != 0 {
		return t + g - rem
	}
	return t
}

// HBA is one SCSI chain: a FIFO bus shared by its disks.
type HBA struct {
	m      *Machine
	res    *sim.Resource
	disks  []*Disk
	active int
}

// QueuePolicy selects the disk's service order.
type QueuePolicy int

// Disk queue policies: the paper's MSU uses round-robin issue (FIFO at
// the disk); Elevator is the §2.3.3 ablation.
const (
	FIFO QueuePolicy = iota
	Elevator
)

type diskReq struct {
	block int64
	size  units.ByteSize
	done  func()
}

// Disk models one Barracuda: a mechanism (seek + rotation + media
// transfer) feeding a per-HBA bus burst and a host-memory DMA.
type Disk struct {
	m        *Machine
	hba      *HBA
	policy   QueuePolicy
	queue    []diskReq
	mechBusy bool
	inflight int
	head     int64
	sweepUp  bool

	// Counters.
	BytesDone int64
	Reqs      int64
}

// SetPolicy selects FIFO or Elevator service order.
func (d *Disk) SetPolicy(p QueuePolicy) { d.policy = p }

// Read submits a read of size bytes at the given block. done fires when
// the data is in host memory.
func (d *Disk) Read(block int64, size units.ByteSize, done func()) {
	d.queue = append(d.queue, diskReq{block: block, size: size, done: done})
	d.inflight++
	d.hba.active++
	d.dispatch()
}

// Write submits a write; the mechanism costs are symmetric in this
// model (host memory read replaces the DMA write).
func (d *Disk) Write(block int64, size units.ByteSize, done func()) {
	d.Read(block, size, done)
}

// pick removes the next request per policy.
func (d *Disk) pick() diskReq {
	if d.policy == FIFO || len(d.queue) == 1 {
		r := d.queue[0]
		d.queue = d.queue[1:]
		return r
	}
	// Elevator (SCAN): nearest request in the sweep direction; reverse
	// when none remain ahead.
	best := -1
	var bestDist int64 = math.MaxInt64
	for pass := 0; pass < 2 && best == -1; pass++ {
		for i, r := range d.queue {
			ahead := r.block >= d.head
			if !d.sweepUp {
				ahead = r.block <= d.head
			}
			if !ahead {
				continue
			}
			dist := r.block - d.head
			if dist < 0 {
				dist = -dist
			}
			if dist < bestDist {
				best, bestDist = i, dist
			}
		}
		if best == -1 {
			d.sweepUp = !d.sweepUp
		}
	}
	r := d.queue[best]
	d.queue = append(d.queue[:best], d.queue[best+1:]...)
	return r
}

// seekTime is the mechanism's seek curve over the fraction of
// DiskBlocks the arm travels, clamped at the full span.
func (d *Disk) seekTime(from, to int64) time.Duration {
	if from == to {
		return 0
	}
	dist := to - from
	if dist < 0 {
		dist = -dist
	}
	frac := float64(dist) / float64(d.m.cfg.DiskBlocks)
	if frac > 1 {
		frac = 1
	}
	return d.m.cfg.Seek(frac)
}

// dispatch starts the next queued request if the mechanism is idle.
// The mechanism frees as soon as the media transfer completes, so the
// next request's seek overlaps this one's bus burst — SCSI disconnect.
func (d *Disk) dispatch() {
	if d.mechBusy || len(d.queue) == 0 {
		return
	}
	d.mechBusy = true
	req := d.pick()

	mech := d.seekTime(d.head, req.block)
	// Rotational latency: uniform over one revolution. Elevator
	// scheduling cannot help this term (§2.3.3).
	mech += time.Duration(d.m.rng.Float64() * float64(d.m.cfg.RotationPeriod))
	mech += d.m.cfg.MediaRate.Duration(req.size)

	// Host-side issue/interrupt overhead grows with concurrent I/O
	// activity (PIO stalls and interrupt service fighting for the CPU).
	if nd := d.m.activeDisks(); nd > 1 {
		mech += time.Duration(nd-1) * d.m.cfg.IssuePerActiveDisk
	}
	if d.m.nic.busy() {
		mech += d.m.cfg.IssueNICActive
	}

	d.head = req.block
	d.m.Eng.After(mech, func() {
		d.mechBusy = false
		d.dispatch() // overlap next seek with this burst
		// Burst over the SCSI bus and DMA into host memory run
		// concurrently; the request completes when both finish.
		remaining := 2
		finish := func() {
			remaining--
			if remaining > 0 {
				return
			}
			d.inflight--
			d.hba.active--
			d.BytesDone += int64(req.size)
			d.Reqs++
			if req.done != nil {
				req.done()
			}
		}
		d.hba.res.Submit(func() time.Duration {
			return d.m.cfg.BusArbitration + d.m.cfg.BusRate.Duration(req.size)
		}, finish)
		d.m.memOp("disk-dma", d.m.cfg.MemWriteRate.Duration(req.size), finish)
	})
}

// NIC is the FDDI interface. Each send walks the §3.2.3 data path —
// per-packet UDP/IP processing (plus any PIO stall), the user-to-mbuf
// copy, the checksum read, the DMA read — all through the shared
// memory system, then occupies the wire.
type NIC struct {
	m        *Machine
	wire     *sim.Resource // the FDDI medium
	inflight int

	BytesSent int64
	Packets   int64
}

func (n *NIC) busy() bool { return n.inflight > 0 }

// Send transmits one UDP packet of the given size. done fires when the
// host send path completes (the syscall returns, the packet queued on
// the interface) — a back-to-back sender like ttcp issues its next
// packet then, while the wire drains asynchronously. BytesSent counts
// at wire exit.
func (n *NIC) Send(size units.ByteSize, done func()) {
	n.inflight++
	cfg := n.m.cfg
	n.m.memOpF("nic", func() time.Duration {
		return cfg.PerPacketCPU + n.m.pioStallNIC()
	}, func() {
		ops := []time.Duration{
			cfg.MemCopyRate.Duration(size), // user → mbuf copy
			cfg.MemReadRate.Duration(size), // UDP checksum
			cfg.MemReadRate.Duration(size), // DMA to the interface
		}
		n.m.memSeq("nic", ops, func() {
			if done != nil {
				done()
			}
			n.wire.Submit(func() time.Duration {
				return cfg.WireRate.Duration(size)
			}, func() {
				n.inflight--
				n.BytesSent += int64(size)
				n.Packets++
			})
		})
	})
}
