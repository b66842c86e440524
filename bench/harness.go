package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"calliope"
	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/msu"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// Load is sized for a 2-core shared box: one process, GOMAXPROCS left
// alone, and no more than this many receive sockets (one drain
// goroutine each) and control sessions.
const nproc = 2

const (
	blockSize = 256 << 10 // msufs.DefaultBlockSize, the paper's page
	metaSize  = 1 << 20   // msufs's reserved metadata region

	typeSD = "mpeg1" // DefaultTypes' 1.5 Mbit/s constant-rate type: the paper's Graph 1 stream
	typeHD = "hd"    // bench-declared 6 Mbit/s type, for the overload step
)

var (
	rateSD = 1500 * units.Kbps
	rateHD = 6000 * units.Kbps
)

// unbounded is the admission budget the bench advertises for disks and
// NICs, so admission never binds and the device limit shows instead.
const unbounded = 100000 * units.Mbps

// contentTypes is the cluster's type table: the defaults plus hd.
func contentTypes() []calliope.ContentType {
	return append(calliope.DefaultTypes(), calliope.ContentType{
		Name: typeHD, Class: core.ConstantRate, Bandwidth: rateHD, Storage: rateHD, Protocol: "cbr",
	})
}

// harness is one started cluster with its content, sessions and
// receiver: everything setup_s pays for.
type harness struct {
	p       *plan
	epoch   time.Time
	tr      *tracer // nil on an untraced run
	taps    *taps
	dev     *benchDev
	cluster *calliope.Cluster
	clients []*calliope.Client
	recv    *receiver
}

// blocksFor is the most file-system blocks a title holds while it is
// ingested: msu.Ingest reserves payload plus 32 bytes a packet up front,
// and the IB-tree then fills whole pages (a stored packet is its payload
// plus 17 bytes of framing; a page gives up 8 to its header and its
// tail to whatever does not fit) and embeds its index among them.
func blocksFor(t title) int64 {
	n := int64(t.packets())
	reserved := (n*int64(t.pktSize+32) + blockSize - 1) / blockSize
	perPage := int64((blockSize - 8) / (t.pktSize + 17))
	filled := (n+perPage-1)/perPage + 1
	if filled > reserved {
		return filled + 1
	}
	return reserved + 1
}

// diskBytes sizes the memory disk to the content (a far larger device
// made set-up time swing with page-fault luck).
func (p *plan) diskBytes() units.ByteSize {
	blocks := int64(4) // slack
	for _, t := range p.titles {
		blocks += blocksFor(t)
	}
	for range p.records {
		blocks += int64(rateSD.Bytes(p.seconds+time.Second))/blockSize + 2
	}
	return units.ByteSize(metaSize + blocks*blockSize)
}

// setup starts the cluster, generates and ingests the plan's content,
// opens the sessions and the receiver, and reports how long that took.
func setup(p *plan, traced bool) (*harness, time.Duration, error) {
	start := time.Now()
	h := &harness{p: p, epoch: start, taps: &taps{}}
	if traced {
		h.tr = &tracer{epoch: h.epoch}
	}
	ok := false
	defer func() {
		if !ok {
			h.close()
		}
	}()

	cfg := calliope.ClusterConfig{
		DiskSize:      p.diskBytes(),
		BlockSize:     blockSize,
		DiskBandwidth: unbounded,
		NetBandwidth:  unbounded,
		Types:         contentTypes(),
		MSUDial:       h.taps.msuDial,
		WrapDevice: func(_, _ int, dev blockdev.BlockDevice) blockdev.BlockDevice {
			h.dev = newBenchDev(dev, p.mechanical, p.seed, h.tr)
			return h.dev
		},
		Preload: func(_, _ int, vol *msufs.Volume) error {
			for _, t := range p.titles {
				if err := calliope.Ingest(vol, t.name, t.ctype, t.generate()); err != nil {
					return fmt.Errorf("ingesting %s: %w", t.name, err)
				}
			}
			return nil
		},
	}
	var err error
	if h.cluster, err = calliope.StartCluster(cfg); err != nil {
		return nil, 0, fmt.Errorf("bench: starting cluster: %w", err)
	}
	if h.tr != nil {
		if err := h.mapExtents(); err != nil {
			return nil, 0, err
		}
	}
	h.dev.openGate()

	if h.recv, err = newReceiver(nproc, h.epoch); err != nil {
		return nil, 0, err
	}
	var opts calliope.Options
	if traced {
		opts.Dial = h.taps.clientDial
	}
	for i := 0; i < nproc; i++ {
		c, err := calliope.DialContext(context.Background(), h.cluster.Addr(), fmt.Sprintf("viewer%d", i), opts)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: opening session %d: %w", i, err)
		}
		h.clients = append(h.clients, c)
		for s, sock := range h.recv.socks {
			for _, typ := range []string{typeSD, typeHD} {
				if err := c.RegisterPort(portName(typ, s), typ, sock.addr, ""); err != nil {
					return nil, 0, fmt.Errorf("bench: registering port: %w", err)
				}
			}
		}
	}
	ok = true
	return h, time.Since(start), nil
}

// portName names the display port of one content type on one socket.
func portName(ctype string, sock int) string { return fmt.Sprintf("%s@%d", ctype, sock) }

// mapExtents builds the device-offset → title map from where msufs put
// each title's pages, so a traced transfer can be attributed.
func (h *harness) mapExtents() error {
	vol := h.cluster.Volume(0, 0)
	var ex []extent
	for _, t := range h.p.titles {
		f, err := vol.Open(t.name)
		if err != nil {
			return fmt.Errorf("bench: locating %s: %w", t.name, err)
		}
		for i := int64(0); i < f.Blocks(); i++ {
			_, off, err := f.Locate(i)
			if err != nil {
				return fmt.Errorf("bench: locating %s page %d: %w", t.name, i, err)
			}
			if n := len(ex); n > 0 && ex[n-1].title == t.id && ex[n-1].to == off {
				ex[n-1].to += blockSize
				continue
			}
			ex = append(ex, extent{from: off, to: off + blockSize, title: t.id, firstPage: i})
		}
	}
	h.dev.setExtents(ex, blockSize)
	return nil
}

// readBack scans a committed recording off the MSU's volume, offline.
func (h *harness) readBack(name string) ([]calliope.Packet, error) {
	return msu.ReadBack(msufs.NewStore(h.cluster.Volume(0, 0)), name)
}

// close tears everything down; safe on a half-built harness.
func (h *harness) close() {
	var wg sync.WaitGroup
	for _, c := range h.clients {
		wg.Add(1)
		go func(c *calliope.Client) {
			defer wg.Done()
			c.Close() //nolint:errcheck // teardown
		}(c)
	}
	wg.Wait()
	if h.recv != nil {
		h.recv.close()
	}
	if h.cluster != nil {
		h.cluster.Close()
	}
}
