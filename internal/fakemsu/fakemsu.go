// Package fakemsu reruns the paper's Coordinator scalability
// experiment (§3.3) with the paper's own instrument: "we have created
// a fake MSU which, when scheduled, delays for 50 ms and then reports
// that the user has terminated the stream. We start two of these MSUs
// on different machines and started two clients who together sent
// 10,000 requests to the coordinator at a rate of about 60 requests
// per second."
//
// The fake MSU registers like a real one (huge disk, huge bandwidth,
// one content item per fake) and acknowledges StartStream immediately;
// a timer then fires the stream-ended notification. Clients drive play
// requests at a fixed rate straight over the wire protocol — they do
// not wait for VCR connections, because fake MSUs never open one.
//
// Results report the Coordinator's CPU utilization (process rusage
// around the run) and intra-server network utilization (bytes on the
// wire against the paper's Ethernet), the two §3.3 metrics.
package fakemsu

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"calliope/internal/core"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// countingConn tallies bytes crossing one TCP connection.
type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// FakeMSU is a registration-only MSU that terminates every stream
// after a fixed delay.
type FakeMSU struct {
	ID    core.MSUID
	Delay time.Duration

	peer  *wire.Peer
	bytes *atomic.Int64

	mu     sync.Mutex
	timers []*time.Timer
	closed bool
}

// Start registers a fake MSU offering one content item named
// <id>-content of the given type.
func Start(coordinator string, id core.MSUID, contentType string, delay time.Duration, bytes *atomic.Int64) (*FakeMSU, error) {
	conn, err := net.Dial("tcp", coordinator)
	if err != nil {
		return nil, fmt.Errorf("fakemsu: dial: %w", err)
	}
	f := &FakeMSU{ID: id, Delay: delay, bytes: bytes}
	cc := &countingConn{Conn: conn, bytes: bytes}
	f.peer = wire.NewPeer(cc, f.handle, nil)
	hello := wire.MSUHello{
		ID:           id,
		ProtoVersion: wire.ProtoVersion,
		Disks: []wire.DiskInfo{{
			BlockSize:   int(256 * units.KB),
			TotalBlocks: 1 << 30,
			FreeBlocks:  1 << 29,
			Bandwidth:   10000 * units.Mbps, // never the bottleneck
			Contents: []wire.ContentDecl{{
				Name:   string(id) + "-content",
				Type:   contentType,
				Length: time.Hour,
				Size:   units.GB,
			}},
		}},
	}
	if err := f.peer.Call(wire.TypeMSUHello, hello, &wire.MSUWelcome{}); err != nil {
		f.peer.Close() //nolint:errcheck // best-effort cleanup; the registration error is what matters
		return nil, err
	}
	return f, nil
}

// Content reports the fake's single content name.
func (f *FakeMSU) Content() string { return string(f.ID) + "-content" }

func (f *FakeMSU) handle(msgType string, body json.RawMessage) (any, error) {
	switch msgType {
	case wire.TypeStartStream:
		var req wire.StartStream
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		f.mu.Lock()
		if !f.closed {
			t := time.AfterFunc(f.Delay, func() {
				f.peer.Notify(wire.TypeStreamEnded, wire.StreamEnded{ //nolint:errcheck
					Stream: req.Spec.Stream, Cause: "fake termination",
				})
			})
			f.timers = append(f.timers, t)
		}
		f.mu.Unlock()
		return &wire.StartStreamOK{}, nil
	case wire.TypeStopStream:
		return nil, nil
	default:
		return nil, fmt.Errorf("fakemsu: unexpected %q", msgType)
	}
}

// Close deregisters the fake.
func (f *FakeMSU) Close() error {
	f.mu.Lock()
	f.closed = true
	for _, t := range f.timers {
		t.Stop()
	}
	f.mu.Unlock()
	return f.peer.Close()
}

// driver is one §3.3 load client speaking the wire protocol directly.
type driver struct {
	peer  *wire.Peer
	ports []string
}

func newDriver(coordinator string, bytes *atomic.Int64, contents []string, contentType string) (*driver, error) {
	conn, err := net.Dial("tcp", coordinator)
	if err != nil {
		return nil, err
	}
	d := &driver{}
	d.peer = wire.NewPeer(&countingConn{Conn: conn, bytes: bytes}, nil, nil)
	var welcome wire.Welcome
	if err := d.peer.Call(wire.TypeHello, wire.Hello{User: "load", ProtoVersion: wire.ProtoVersion}, &welcome); err != nil {
		return nil, err
	}
	// One port per content item; addresses are never dialled by fakes.
	for i, content := range contents {
		port := fmt.Sprintf("p%d", i)
		err := d.peer.Call(wire.TypeRegisterPort, wire.RegisterPort{
			Name: port, Type: contentType, Addr: "127.0.0.1:9", Control: "",
		}, nil)
		if err != nil {
			return nil, err
		}
		d.ports = append(d.ports, port)
		_ = content
	}
	return d, nil
}

// Config sizes the scalability run.
type Config struct {
	MSUs        int           // fake MSUs (paper: 2)
	Clients     int           // load clients (paper: 2)
	Requests    int           // total requests (paper: 10,000)
	Rate        float64       // aggregate requests/sec (paper: ~60)
	Delay       time.Duration // fake stream lifetime (paper: 50 ms)
	NetCapacity units.BitRate // intra-server network (paper: Ethernet)
}

// DefaultConfig is the paper's §3.3 setup.
func DefaultConfig() Config {
	return Config{
		MSUs:        2,
		Clients:     2,
		Requests:    10000,
		Rate:        60,
		Delay:       50 * time.Millisecond,
		NetCapacity: 10 * units.Mbps,
	}
}

// Result reports the §3.3 metrics.
type Result struct {
	Requests     int
	Duration     time.Duration
	AchievedRate float64 // requests/sec actually issued
	CPUUtil      float64 // process CPU time / wall time
	NetUtil      float64 // wire bytes vs NetCapacity
	WireBytes    int64
	Errors       int
}

// Run executes the experiment against a live Coordinator.
func Run(coordinator string, cfg Config) (*Result, error) {
	if cfg.MSUs < 1 || cfg.Clients < 1 || cfg.Requests < 1 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("fakemsu: invalid config %+v", cfg)
	}
	var bytes atomic.Int64

	var fakes []*FakeMSU
	var contents []string
	for i := 0; i < cfg.MSUs; i++ {
		f, err := Start(coordinator, core.MSUID(fmt.Sprintf("fake%d", i)), "mpeg1", cfg.Delay, &bytes)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		fakes = append(fakes, f)
		contents = append(contents, f.Content())
	}

	drivers := make([]*driver, cfg.Clients)
	for i := range drivers {
		d, err := newDriver(coordinator, &bytes, contents, "mpeg1")
		if err != nil {
			return nil, err
		}
		defer d.peer.Close() //nolint:errcheck // scenario teardown; nothing to report a close error to
		drivers[i] = d
	}

	perClient := cfg.Requests / cfg.Clients
	interval := time.Duration(float64(time.Second) * float64(cfg.Clients) / cfg.Rate)

	var cpuBefore syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &cpuBefore); err != nil {
		return nil, fmt.Errorf("fakemsu: rusage: %w", err)
	}
	start := time.Now()

	var wg sync.WaitGroup
	var errCount atomic.Int64
	for ci, d := range drivers {
		wg.Add(1)
		go func(ci int, d *driver) {
			defer wg.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for r := 0; r < perClient; r++ {
				<-ticker.C
				content := contents[(ci+r)%len(contents)]
				port := d.ports[(ci+r)%len(d.ports)]
				var resp wire.PlayOK
				err := d.peer.Call(wire.TypePlay, wire.Play{
					Content: content, Port: port, ControlAddr: "127.0.0.1:9",
				}, &resp)
				if err != nil {
					errCount.Add(1)
				}
			}
		}(ci, d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var cpuAfter syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &cpuAfter); err != nil {
		return nil, fmt.Errorf("fakemsu: rusage: %w", err)
	}

	cpu := rusageDelta(&cpuBefore, &cpuAfter)
	res := &Result{
		Requests:     perClient * cfg.Clients,
		Duration:     elapsed,
		AchievedRate: float64(perClient*cfg.Clients) / elapsed.Seconds(),
		CPUUtil:      cpu.Seconds() / elapsed.Seconds(),
		WireBytes:    bytes.Load(),
		Errors:       int(errCount.Load()),
	}
	if cfg.NetCapacity > 0 {
		res.NetUtil = float64(res.WireBytes) * 8 / elapsed.Seconds() / float64(cfg.NetCapacity)
	}
	return res, nil
}

func rusageDelta(a, b *syscall.Rusage) time.Duration {
	us := func(tv syscall.Timeval) int64 { return int64(tv.Sec)*1_000_000 + int64(tv.Usec) }
	total := (us(b.Utime) - us(a.Utime)) + (us(b.Stime) - us(a.Stime))
	return time.Duration(total) * time.Microsecond
}

// ExtrapolatedRequestRate computes the paper's closing claim: a
// large-scale system of the given size generates this many requests
// per second when sessions last sessionLen — "Even if sessions are as
// short as one minute, a large scale implementation of Calliope
// serving 3000 simultaneous streams (150 MSUs at 20 streams each)
// would need to service only 50 requests per second."
func ExtrapolatedRequestRate(streams int, sessionLen time.Duration) float64 {
	if sessionLen <= 0 {
		return 0
	}
	return float64(streams) / sessionLen.Seconds()
}
