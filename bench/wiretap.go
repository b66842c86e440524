package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"

	"calliope/internal/obs"
	"calliope/internal/trace"
	"calliope/internal/wire"
)

// The bench watches the control plane from the outside, through
// net.Conn wrappers handed to ClusterConfig.MSUDial and
// client.Options.Dial. The wrappers follow wire's framing (a 4-byte
// big-endian length, then a JSON envelope) without decoding it, which
// is enough to count messages; the MSU's outbound cache reports are
// also kept, because each carries the MSU's cumulative counters.

// ctlCounters tallies control-plane traffic across every tapped conn.
type ctlCounters struct {
	bytes, msgs atomic.Int64
}

// frameScanner follows wire's length-prefixed framing across arbitrary
// Read/Write boundaries.
type frameScanner struct {
	hdr    [4]byte
	nhdr   int
	remain int    // body bytes still to come
	keep   bool   // collect bodies
	body   []byte // the body so far, when keep
	// done is called once per completed frame, with the body when keep
	// is set and nil otherwise.
	done func(body []byte)
}

// feed consumes p.
func (fs *frameScanner) feed(p []byte) {
	for len(p) > 0 {
		if fs.remain == 0 {
			n := copy(fs.hdr[fs.nhdr:], p)
			fs.nhdr += n
			p = p[n:]
			if fs.nhdr < len(fs.hdr) {
				return
			}
			fs.nhdr = 0
			fs.remain = int(binary.BigEndian.Uint32(fs.hdr[:]))
			fs.body = fs.body[:0]
			if fs.remain == 0 {
				fs.done(nil)
			}
			continue
		}
		n := len(p)
		if n > fs.remain {
			n = fs.remain
		}
		if fs.keep {
			fs.body = append(fs.body, p[:n]...)
		}
		fs.remain -= n
		p = p[n:]
		if fs.remain == 0 {
			if fs.keep {
				fs.done(fs.body)
			} else {
				fs.done(nil)
			}
		}
	}
}

// tapConn counts the frames and bytes crossing one control connection.
// A conn is read by one goroutine and written under wire.Peer's write
// lock, so each direction's scanner has a single user.
type tapConn struct {
	net.Conn
	ctl     *ctlCounters
	in, out frameScanner
}

// newTapConn taps conn; keepOut, when set, is handed the body of every
// outbound frame.
func newTapConn(conn net.Conn, ctl *ctlCounters, keepOut func(body []byte)) *tapConn {
	c := &tapConn{Conn: conn, ctl: ctl}
	c.in.done = func([]byte) { ctl.msgs.Add(1) }
	c.out.done = c.in.done
	if keepOut != nil {
		c.out.keep = true
		c.out.done = func(body []byte) {
			ctl.msgs.Add(1)
			keepOut(body)
		}
	}
	return c
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.ctl.bytes.Add(int64(n))
		c.in.feed(p[:n])
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.ctl.bytes.Add(int64(n))
		c.out.feed(p[:n])
	}
	return n, err
}

// reportLog keeps the MSU's most recent cache reports as they left it.
// The Coordinator merges these too, but by differencing consecutive
// snapshots, which two players stopping at once can deliver out of
// order; the cumulative snapshot with the highest counters is the MSU's
// own last word and needs no such care.
type reportLog struct {
	mu   sync.Mutex
	ring [][]byte
	next int
}

// reportsKept bounds the log. Every player that stops sends a report,
// and a run ends with all of them stopping together, so the ring must
// outlast a full house of viewers.
const reportsKept = 512

var cacheReportTag = []byte(`"type":"` + wire.TypeCacheReport + `"`)

func (l *reportLog) note(body []byte) {
	if !bytes.Contains(body, cacheReportTag) {
		return
	}
	cp := append([]byte(nil), body...)
	l.mu.Lock()
	if len(l.ring) < reportsKept {
		l.ring = append(l.ring, cp)
	} else {
		l.ring[l.next] = cp
		l.next = (l.next + 1) % reportsKept
	}
	l.mu.Unlock()
}

// msuReport is the MSU's last word: the highest cumulative metrics
// snapshot and, per disk, the highest cache and scheduler counters
// among the kept reports.
type msuReport struct {
	obs   obs.Snapshot
	cache trace.CacheStats
	io    trace.IOSchedStats
	n     int
}

func (l *reportLog) last() msuReport {
	l.mu.Lock()
	frames := append([][]byte(nil), l.ring...)
	l.mu.Unlock()
	var out msuReport
	for _, raw := range frames {
		var env wire.Envelope
		if json.Unmarshal(raw, &env) != nil || env.Type != wire.TypeCacheReport {
			continue
		}
		var rep wire.CacheReport
		if env.Decode(&rep) != nil {
			continue
		}
		out.n++
		if rep.Obs != nil && rep.Obs.Counter("delivery_packets_total") >= out.obs.Counter("delivery_packets_total") {
			out.obs = *rep.Obs
		}
		if rep.Stats.Lookups() >= out.cache.Lookups() {
			out.cache = rep.Stats
		}
		if rep.IO.Requests >= out.io.Requests {
			out.io = rep.IO
		}
	}
	return out
}

// taps builds the dialers the cluster and the clients are given.
type taps struct {
	ctl     ctlCounters
	reports reportLog
}

// msuDial is ClusterConfig.MSUDial: the MSU's Coordinator connection
// (the first it dials, at registration) has its outbound reports kept;
// its per-group client control connections are only counted.
func (t *taps) msuDial(int) func(network, address string) (net.Conn, error) {
	var registered atomic.Bool
	return func(network, address string) (net.Conn, error) {
		conn, err := net.Dial(network, address)
		if err != nil {
			return nil, err
		}
		if registered.CompareAndSwap(false, true) {
			return newTapConn(conn, &t.ctl, t.reports.note), nil
		}
		return newTapConn(conn, &t.ctl, nil), nil
	}
}

// clientDial is client.Options.Dial.
func (t *taps) clientDial(network, address string) (net.Conn, error) {
	conn, err := net.Dial(network, address)
	if err != nil {
		return nil, err
	}
	return newTapConn(conn, &t.ctl, nil), nil
}
