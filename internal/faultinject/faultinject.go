// Package faultinject is Calliope's deterministic fault-injection
// layer. The paper's fault-tolerance story (§2.2) — MSU failures
// detected by broken TCP connections, queued requests, re-registering
// MSUs — is only trustworthy if it can be exercised on demand, so this
// package wraps the seams where failures happen:
//
//   - net.Conn / net.Listener / dial functions, with scripted faults:
//     drop (sever the connection), hang (black-hole I/O), partial
//     write (short writes that then sever), and delayed close (sever
//     after a scripted timer tick);
//   - the MSU file system's block device, with read/write error
//     injection per block range (see Device).
//
// An Injector is handed to the coordinator, MSU and client
// constructors through their config hooks (Listen/Dial); every
// connection made through it is tracked and can be cut — CutAll is a
// process crash as the network sees it: every TCP connection breaks at
// once and, with Partition, redials fail until the "machine" returns.
//
// The package itself never reads the wall clock: delayed faults fire
// from an injected After hook (default time.After), so tests drive
// fault timing explicitly and the walltime analyzer keeps it honest.
package faultinject

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// ErrInjected marks every failure manufactured by this package.
var ErrInjected = fmt.Errorf("faultinject: injected fault")

// Op is a scripted connection fault.
type Op int

// Connection fault kinds.
const (
	// Drop severs the connection: in-flight and future I/O fail and
	// the peer sees EOF/reset — the paper's "broken TCP connection".
	Drop Op = iota
	// Hang black-holes the connection: reads and writes block until
	// the connection is cut or the injector is healed. This is the
	// wedged-peer case that CallTimeout guards against.
	Hang
	// PartialWrite lets the next write deliver only half its bytes,
	// then severs the connection — a crash mid-frame.
	PartialWrite
	// DelayedClose severs the connection after Delay has elapsed on
	// the injected clock.
	DelayedClose
)

func (o Op) String() string {
	switch o {
	case Drop:
		return "drop"
	case Hang:
		return "hang"
	case PartialWrite:
		return "partial-write"
	case DelayedClose:
		return "delayed-close"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Rule schedules one fault against the Nth connection the injector
// sees (dialed or accepted, counted together from 0). Conn -1 matches
// every connection.
type Rule struct {
	Conn  int
	Op    Op
	Delay time.Duration // DelayedClose only
}

// Options configures an Injector.
type Options struct {
	// After supplies the timer for delayed faults; nil means
	// time.After. Deterministic tests inject channel factories they
	// fire by hand.
	After func(d time.Duration) <-chan time.Time
}

// Injector tracks connections flowing through its Dial/Listener
// wrappers and applies scripted or on-demand faults to them.
type Injector struct {
	after func(d time.Duration) <-chan time.Time

	mu          sync.Mutex
	rules       []Rule
	seq         int // connections seen so far
	failDials   int // next N dials fail outright (refused SYN)
	partitioned bool
	conns       map[*Conn]struct{}
}

// New builds an Injector.
func New(opts Options) *Injector {
	after := opts.After
	if after == nil {
		after = time.After
	}
	return &Injector{after: after, conns: make(map[*Conn]struct{})}
}

// Script arms connection fault rules (appending to any armed earlier).
func (in *Injector) Script(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = append(in.rules, rules...)
}

// FailDials makes the next n dials through Dial wrappers fail outright
// (the refused-SYN case: nothing listening yet).
func (in *Injector) FailDials(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failDials = n
}

// Partition toggles a network partition: while set, every dial fails
// immediately and wrapped listeners drop inbound connections on
// arrival. Cut existing connections separately with CutAll.
func (in *Injector) Partition(on bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.partitioned = on
}

// CutAll severs every live connection made through this injector —
// with Partition(true) first, the wrapped process has crashed as far
// as the rest of the cluster can tell. Connections are cut in the order
// they were opened, so the outcome does not depend on map order: an
// MSU's Coordinator link, dialled at start-up, dies before the client
// control links whose loss the MSU would otherwise still report over it.
func (in *Injector) CutAll() {
	in.mu.Lock()
	conns := make([]*Conn, 0, len(in.conns))
	for c := range in.conns {
		conns = append(conns, c)
	}
	in.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].seq < conns[j].seq })
	for _, c := range conns {
		c.Cut()
	}
}

// Live reports how many tracked connections are currently open.
func (in *Injector) Live() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.conns)
}

// DialFunc is the dial hook shape shared by the MSU and client
// configs.
type DialFunc func(network, address string) (net.Conn, error)

// Dial wraps base (nil means a net.Dialer with a 5 s timeout) so every
// outbound connection is tracked and subject to the script.
func (in *Injector) Dial(base DialFunc) DialFunc {
	if base == nil {
		d := &net.Dialer{Timeout: 5 * time.Second}
		base = func(network, address string) (net.Conn, error) { return d.Dial(network, address) }
	}
	return func(network, address string) (net.Conn, error) {
		in.mu.Lock()
		if in.partitioned {
			in.mu.Unlock()
			return nil, fmt.Errorf("%w: partitioned, dial %s refused", ErrInjected, address)
		}
		if in.failDials > 0 {
			in.failDials--
			in.mu.Unlock()
			return nil, fmt.Errorf("%w: dial %s refused", ErrInjected, address)
		}
		in.mu.Unlock()
		conn, err := base(network, address)
		if err != nil {
			return nil, err
		}
		return in.track(conn), nil
	}
}

// Listener wraps ln so every accepted connection is tracked and
// subject to the script.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.in.mu.Lock()
		partitioned := l.in.partitioned
		l.in.mu.Unlock()
		// A partitioned "machine" is unreachable inbound too: the
		// connection is dropped on arrival, not served.
		if partitioned {
			conn.Close() //nolint:errcheck // refusing a dead machine's visitor
			continue
		}
		return l.in.track(conn), nil
	}
}

// track registers conn and applies any scripted fault for its slot.
func (in *Injector) track(conn net.Conn) *Conn {
	c := &Conn{Conn: conn, in: in, hangCh: make(chan struct{})}
	in.mu.Lock()
	idx := in.seq
	in.seq++
	c.seq = idx
	in.conns[c] = struct{}{}
	var fire []Rule
	for _, r := range in.rules {
		if r.Conn == idx || r.Conn == -1 {
			fire = append(fire, r)
		}
	}
	in.mu.Unlock()
	for _, r := range fire {
		c.apply(r)
	}
	return c
}

func (in *Injector) forget(c *Conn) {
	in.mu.Lock()
	delete(in.conns, c)
	in.mu.Unlock()
}

// Conn is one tracked connection. The zero value is not usable; Conns
// come from an Injector's Dial or Listener wrappers.
type Conn struct {
	net.Conn
	in  *Injector
	seq int // position in the injector's open order; fixed by track

	mu      sync.Mutex
	cut     bool
	hanging bool
	partial bool
	hangCh  chan struct{} // closed when the hang is released by Cut
}

// apply arms one scripted fault on this connection.
func (c *Conn) apply(r Rule) {
	switch r.Op {
	case Drop:
		c.Cut()
	case Hang:
		c.mu.Lock()
		c.hanging = true
		c.mu.Unlock()
	case PartialWrite:
		c.mu.Lock()
		c.partial = true
		c.mu.Unlock()
	case DelayedClose:
		timer := c.in.after(r.Delay)
		go func() {
			<-timer
			c.Cut()
		}()
	}
}

// Cut severs the connection now: both directions fail, hung I/O is
// released with an error, and the peer observes a broken TCP
// connection.
func (c *Conn) Cut() {
	c.mu.Lock()
	if c.cut {
		c.mu.Unlock()
		return
	}
	c.cut = true
	close(c.hangCh)
	c.mu.Unlock()
	c.Conn.Close() //nolint:errcheck // severing; nothing to report to
	c.in.forget(c)
}

func (c *Conn) gate() error {
	c.mu.Lock()
	cut, hanging := c.cut, c.hanging
	ch := c.hangCh
	c.mu.Unlock()
	if cut {
		return fmt.Errorf("%w: connection cut", ErrInjected)
	}
	if hanging {
		<-ch // parked until Cut releases the hang
		return fmt.Errorf("%w: connection cut while hung", ErrInjected)
	}
	return nil
}

// Read applies the fault gate, then reads.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write applies the fault gate, then writes — a PartialWrite fault
// delivers half the bytes and severs the connection.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.gate(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	partial := c.partial
	c.partial = false
	c.mu.Unlock()
	if partial && len(p) > 1 {
		n, _ := c.Conn.Write(p[:len(p)/2]) //nolint:errcheck // the injected error below wins
		c.Cut()
		return n, fmt.Errorf("%w: partial write (%d of %d bytes)", ErrInjected, n, len(p))
	}
	return c.Conn.Write(p)
}

// Close unregisters and closes the connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	alreadyCut := c.cut
	if !alreadyCut {
		c.cut = true
		close(c.hangCh)
	}
	c.mu.Unlock()
	c.in.forget(c)
	if alreadyCut {
		return nil
	}
	return c.Conn.Close()
}
