// Package calliope is the public face of this reproduction of
// "Calliope: A Distributed, Scalable Multimedia Server" (Heybey,
// Sullivan, England — USENIX 1996).
//
// Calliope is a distributed multimedia server: a single Coordinator
// (the global resource manager) plus any number of Multimedia Storage
// Units (MSUs — the real-time data movers), serving audio/video
// streams to clients over UDP with TCP control. This package assembles
// those pieces and re-exports the client library; the component
// packages live under internal/.
//
// Typical use:
//
//	cluster, _ := calliope.StartCluster(calliope.ClusterConfig{MSUs: 2, DisksPerMSU: 2})
//	defer cluster.Close()
//	// load content offline (mkcontent does this for the CLI)
//	calliope.Ingest(cluster.Volume(0, 0), "movie", "mpeg1", packets)
//	c, _ := calliope.Dial(cluster.Addr(), "alice")
//	recv, _ := calliope.NewReceiver("")
//	c.RegisterPort("tv", "mpeg1", recv.Addr(), "")
//	stream, _ := c.Play("movie", "tv", false)
//	...
//	stream.Quit()
package calliope

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"calliope/internal/admindb"
	"calliope/internal/blockdev"
	"calliope/internal/client"
	"calliope/internal/coordinator"
	"calliope/internal/core"
	"calliope/internal/media"
	"calliope/internal/msu"
	"calliope/internal/msufs"
	"calliope/internal/obs"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// Re-exported domain types.
type (
	// ContentType describes how one kind of content is played and
	// stored; see core.ContentType.
	ContentType = core.ContentType
	// ContentInfo is one table-of-contents entry.
	ContentInfo = core.ContentInfo
	// Client is a Coordinator session with VCR-controlled streams.
	Client = client.Client
	// Options tunes a Client's failure handling; see client.Options.
	Options = client.Options
	// Stream is a playback handle.
	Stream = client.Stream
	// Recording is a record-session handle.
	Recording = client.Recording
	// StatusV2 is the cluster status: the merged metrics snapshot plus
	// per-disk coverage and per-MSU network load.
	StatusV2 = wire.StatusV2
	// Event is one entry on the Coordinator's cluster event timeline.
	Event = obs.Event
	// EventsRequest pages (or long-polls) the event timeline.
	EventsRequest = wire.EventsRequest
	// EventsReply is one page of the event timeline plus the cursor
	// for the next request.
	EventsReply = wire.EventsReply
	// Receiver is a UDP display-port sink.
	Receiver = client.Receiver
	// JitterBuffer is the client-side smoothing buffer of §2.2.1.
	JitterBuffer = client.JitterBuffer
	// Packet is one media packet (delivery-time offset + payload).
	Packet = media.Packet
)

// Rate classes, re-exported.
const (
	ConstantRate = core.ConstantRate
	VariableRate = core.VariableRate
)

// Customer roles, re-exported for ClusterConfig.Users.
const (
	RoleViewer = coordinator.RoleViewer
	RoleAdmin  = coordinator.RoleAdmin
)

// Dial connects to a Coordinator and opens a session.
func Dial(coordinator, user string) (*Client, error) { return client.Dial(coordinator, user) }

// DialOptions is Dial with failure-handling knobs.
func DialOptions(coordinator, user string, opts Options) (*Client, error) {
	return client.DialOptions(coordinator, user, opts)
}

// DialContext is Dial bounded by a context; see client.DialContext.
func DialContext(ctx context.Context, coordinator, user string, opts Options) (*Client, error) {
	return client.DialContext(ctx, coordinator, user, opts)
}

// NewReceiver opens a UDP display-port sink.
func NewReceiver(host string) (*Receiver, error) { return client.NewReceiver(host) }

// NewJitterBuffer creates a presentation buffer running delay behind
// arrival.
func NewJitterBuffer(delay time.Duration) (*JitterBuffer, error) {
	return client.NewJitterBuffer(delay)
}

// Ingest loads a packet stream into a volume as named content of the
// given type (offline administration; an MSU picks it up at startup).
func Ingest(vol *msufs.Volume, name, contentType string, pkts []Packet) error {
	return msu.Ingest(msufs.NewStore(vol), name, contentType, pkts)
}

// IngestFast produces and links fast-forward/backward companion files
// for already-ingested content.
func IngestFast(vol *msufs.Volume, name, contentType string, pkts []Packet, every int) error {
	return msu.IngestFast(msufs.NewStore(vol), name, contentType, pkts, every)
}

// DefaultTypes is a working content-type table: the paper's MPEG-1
// movies, MBone RTP video and VAT audio, and the composite Seminar
// type (one RTP video plus one VAT audio stream).
func DefaultTypes() []ContentType {
	return []ContentType{
		{
			Name:      "mpeg1",
			Class:     core.ConstantRate,
			Bandwidth: 1500 * units.Kbps,
			Storage:   1500 * units.Kbps,
			Protocol:  "cbr",
		},
		{
			Name:      "rtp-video",
			Class:     core.VariableRate,
			Bandwidth: 3000 * units.Kbps, // near peak (§2.2)
			Storage:   900 * units.Kbps,  // near average
			Protocol:  "rtp",
		},
		{
			Name:      "vat-audio",
			Class:     core.VariableRate,
			Bandwidth: 128 * units.Kbps,
			Storage:   80 * units.Kbps,
			Protocol:  "vat",
		},
		{
			Name:       "seminar",
			Components: []string{"rtp-video", "vat-audio"},
		},
	}
}

// ClusterConfig sizes a single-process Calliope installation — the
// paper's "very small installations [where] the Coordinator and MSU
// software may run on the same machine", generalized to N MSUs for
// tests and examples.
type ClusterConfig struct {
	// Addr is the Coordinator listen address (default 127.0.0.1:0).
	Addr string
	// MSUs is the storage-unit count (default 1).
	MSUs int
	// DisksPerMSU is the disk (volume) count per MSU (default 1).
	DisksPerMSU int
	// Striped makes each MSU stripe content round-robin across all its
	// disks (§2.3.3's alternative layout) instead of placing each file
	// on one disk. The MSU then advertises a single logical disk with
	// the aggregate bandwidth and capacity.
	Striped bool
	// DiskSize is each in-memory disk's capacity (default 64 MB).
	DiskSize units.ByteSize
	// BlockSize is the file-system block size (default 256 KB).
	BlockSize int
	// DiskBandwidth is each disk's advertised delivery budget
	// (default 24 Mbit/s).
	DiskBandwidth units.BitRate
	// NetBandwidth is each MSU's advertised NIC delivery budget. Zero
	// defaults it (Coordinator-side) to the sum of the disk budgets;
	// raise it to let RAM-cached streams exceed the disks' aggregate
	// duty cycle.
	NetBandwidth units.BitRate
	// CacheBytes sizes each disk's RAM interval cache (default
	// msu.DefaultCacheBytes; negative disables caching).
	CacheBytes units.ByteSize
	// Types seeds the content-type table (default DefaultTypes).
	Types []ContentType
	// Users is the customer database (user → role); empty means an
	// open installation where everyone administrates.
	Users map[string]coordinator.Role
	// QueueTimeout bounds queued requests (default 30s).
	QueueTimeout time.Duration
	// Replication tunes the Coordinator's demand-driven content
	// replication policy (hot titles earn extra MSU copies over the
	// MSU-to-MSU transfer path): the copies a title may have and the
	// rate of one transfer; the zero value is the defaults.
	Replication coordinator.ReplicationConfig
	// StateDir, if set, gives the Coordinator a durable administrative
	// database (internal/admindb) in that directory, and enables
	// Cluster.RestartCoordinator: a crash–restart of the Coordinator
	// keeps the content catalog, replica locations and ID counters.
	StateDir string
	// Logger enables server logging.
	Logger *log.Logger
	// MSUDial supplies a per-MSU TCP dialer used for the Coordinator
	// connection and client control connections; nil means the MSU
	// default. The fault-injection tests pass per-MSU injector dialers
	// here (internal/faultinject) so one MSU can be "crashed" by
	// severing everything it has dialed.
	MSUDial func(msuIdx int) func(network, address string) (net.Conn, error)
	// MSUListen supplies a per-MSU TCP listener factory for the
	// replication transfer port; nil means net.Listen. The fault tests
	// pass injector-wrapped listeners so "crashing" an MSU also severs
	// the copies it is serving.
	MSUListen func(msuIdx int) func(network, address string) (net.Listener, error)
	// WrapDevice, if set, wraps each disk's block device before it is
	// formatted — the place to interpose a faultinject.Device.
	WrapDevice func(msuIdx, diskIdx int, dev blockdev.BlockDevice) blockdev.BlockDevice
	// Preload, if set, runs on every freshly formatted volume before
	// its MSU registers — the place to Ingest content so it appears in
	// the Coordinator's table of contents from the start.
	Preload func(msuIdx, diskIdx int, vol *msufs.Volume) error
	// PreloadStriped, if set with Striped, runs once per MSU with the
	// striped logical store after its volumes are formatted — use
	// IngestStore there.
	PreloadStriped func(msuIdx int, store msufs.Store) error
}

// Cluster is a running single-process installation.
type Cluster struct {
	Coordinator *coordinator.Coordinator
	MSUs        []*msu.MSU
	vols        [][]*msufs.Volume
	// msuCfgs keeps each MSU's original configuration so RestartMSU can
	// bring the replacement up with the same dialers, listeners, layout
	// and budgets.
	msuCfgs []msu.Config
	// store is the Coordinator's durable administrative database when
	// ClusterConfig.StateDir was set; the Cluster owns its lifecycle.
	store    *admindb.DB
	stateDir string
	// coordCfg is kept so RestartCoordinator can rebuild the
	// Coordinator against the same store and address.
	coordCfg coordinator.Config
}

// StartCluster formats in-memory disks, starts a Coordinator and the
// MSUs, and waits for registration.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.MSUs <= 0 {
		cfg.MSUs = 1
	}
	if cfg.DisksPerMSU <= 0 {
		cfg.DisksPerMSU = 1
	}
	if cfg.DiskSize <= 0 {
		cfg.DiskSize = 64 * units.MB
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = int(256 * units.KB)
	}
	if cfg.Types == nil {
		cfg.Types = DefaultTypes()
	}

	ccfg := coordinator.Config{
		Addr:         cfg.Addr,
		Types:        cfg.Types,
		Users:        cfg.Users,
		QueueTimeout: cfg.QueueTimeout,
		Replication:  cfg.Replication,
		Logger:       cfg.Logger,
	}
	var store *admindb.DB
	if cfg.StateDir != "" {
		var err error
		store, err = admindb.Open(admindb.Options{Dir: cfg.StateDir, Logger: cfg.Logger})
		if err != nil {
			return nil, err
		}
		ccfg.Store = store
	}
	coord, err := coordinator.New(ccfg)
	if err != nil {
		if store != nil {
			store.Close() //nolint:errcheck // the New error is the one reported
		}
		return nil, err
	}
	if err := coord.Start(); err != nil {
		if store != nil {
			store.Close() //nolint:errcheck // the Start error is the one reported
		}
		return nil, err
	}
	cl := &Cluster{Coordinator: coord, store: store, stateDir: cfg.StateDir, coordCfg: ccfg}

	for i := 0; i < cfg.MSUs; i++ {
		var vols []*msufs.Volume
		for d := 0; d < cfg.DisksPerMSU; d++ {
			mem, err := blockdev.NewMem(int64(cfg.DiskSize))
			if err != nil {
				cl.Close()
				return nil, err
			}
			var dev blockdev.BlockDevice = mem
			if cfg.WrapDevice != nil {
				dev = cfg.WrapDevice(i, d, dev)
			}
			vol, err := msufs.Format(dev, msufs.Options{BlockSize: cfg.BlockSize})
			if err != nil {
				cl.Close()
				return nil, err
			}
			if cfg.Preload != nil {
				if err := cfg.Preload(i, d, vol); err != nil {
					cl.Close()
					return nil, fmt.Errorf("calliope: preloading msu%d disk %d: %w", i, d, err)
				}
			}
			vols = append(vols, vol)
		}
		if cfg.Striped && cfg.PreloadStriped != nil {
			set, err := msufs.NewStripeSet(vols...)
			if err != nil {
				cl.Close()
				return nil, err
			}
			if err := cfg.PreloadStriped(i, msufs.NewStripedStore(set)); err != nil {
				cl.Close()
				return nil, fmt.Errorf("calliope: striped preload msu%d: %w", i, err)
			}
		}
		mcfg := msu.Config{
			ID:            core.MSUID(fmt.Sprintf("msu%d", i)),
			Coordinator:   coord.Addr(),
			Volumes:       vols,
			Striped:       cfg.Striped,
			DiskBandwidth: cfg.DiskBandwidth,
			NetBandwidth:  cfg.NetBandwidth,
			CacheBytes:    cfg.CacheBytes,
			Logger:        cfg.Logger,
		}
		if cfg.MSUDial != nil {
			mcfg.Dial = cfg.MSUDial(i)
		}
		if cfg.MSUListen != nil {
			mcfg.Listen = cfg.MSUListen(i)
		}
		m, err := msu.New(mcfg)
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := m.Start(); err != nil {
			m.Close() //nolint:errcheck // the Start error is the one reported
			cl.Close()
			return nil, err
		}
		cl.MSUs = append(cl.MSUs, m)
		cl.vols = append(cl.vols, vols)
		cl.msuCfgs = append(cl.msuCfgs, mcfg)
	}
	return cl, nil
}

// Addr reports the Coordinator's address.
func (c *Cluster) Addr() string { return c.Coordinator.Addr() }

// Volume returns MSU m's disk d, for offline content loading. Content
// ingested after the MSU registered is announced on its next
// registration; load before StartCluster-served clients need it, or
// restart the MSU.
func (c *Cluster) Volume(m, d int) *msufs.Volume { return c.vols[m][d] }

// IngestStore loads content through any logical store — a volume store
// or a striped store.
func IngestStore(store msufs.Store, name, contentType string, pkts []Packet) error {
	return msu.Ingest(store, name, contentType, pkts)
}

// RestartMSU replaces MSU idx with a fresh server process on the same
// volumes — the recovery path of §2.2: the returning MSU contacts the
// Coordinator and is restored to the scheduling database.
func (c *Cluster) RestartMSU(idx int) (*msu.MSU, error) {
	if idx < 0 || idx >= len(c.vols) {
		return nil, fmt.Errorf("calliope: no MSU %d", idx)
	}
	mcfg := c.msuCfgs[idx]
	mcfg.Coordinator = c.Addr() // the Coordinator may have restarted on a new port
	m, err := msu.New(mcfg)
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		m.Close() //nolint:errcheck // the Start error is the one reported
		return nil, err
	}
	c.MSUs[idx] = m
	return m, nil
}

// RestartCoordinator kills the Coordinator and replaces it with a
// fresh instance recovered from the state directory — the
// crash–restart path. The administrative store is cut off before the
// teardown so nothing the dying Coordinator writes on the way down
// reaches disk (a real crash writes nothing either); the replacement
// reopens the directory, replays snapshot + journal, and listens on
// the same address so the existing reconnect machinery — MSU
// re-registration with backoff, client reconnect + port replay —
// converges on it. Active sessions and registrations drop, as in a
// crash; the MSU→client data plane keeps flowing. Requires
// ClusterConfig.StateDir.
func (c *Cluster) RestartCoordinator() error {
	if c.store == nil {
		return fmt.Errorf("calliope: RestartCoordinator needs ClusterConfig.StateDir")
	}
	cfg := c.coordCfg
	cfg.Addr = c.Coordinator.Addr() // keep the address MSUs and clients redial
	c.store.Close()                 //nolint:errcheck // crash semantics: teardown writes are dropped
	c.Coordinator.Close()
	store, err := admindb.Open(admindb.Options{Dir: c.stateDir, Logger: cfg.Logger})
	if err != nil {
		return err
	}
	cfg.Store = store
	coord, err := coordinator.New(cfg)
	if err != nil {
		store.Close() //nolint:errcheck // the New error is the one reported
		return err
	}
	if err := coord.Start(); err != nil {
		store.Close() //nolint:errcheck // the Start error is the one reported
		return err
	}
	c.Coordinator = coord
	c.store = store
	c.coordCfg = cfg
	return nil
}

// Close shuts the whole installation down.
func (c *Cluster) Close() {
	for _, m := range c.MSUs {
		m.Close()
	}
	if c.Coordinator != nil {
		c.Coordinator.Close()
	}
	if c.store != nil {
		c.store.Close() //nolint:errcheck // every mutation is already durable
	}
}
