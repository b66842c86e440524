package client

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Receiver is a UDP sink for one display port: the "software
// encoder/decoder that is part of the client application or a simple
// driver for a hardware device" of §2.1. It records arrival times and
// sizes (and optionally payloads) so tests and examples can verify
// delivery and measure pacing.
type Receiver struct {
	conn *net.UDPConn

	mu       sync.Mutex
	capture  bool
	arrivals []time.Time
	sizes    []int
	payloads [][]byte
	bytes    int64
	closed   bool
	wg       sync.WaitGroup
}

// Packet is one received datagram.
type Packet struct {
	At      time.Time
	Size    int
	Payload []byte // nil unless capture was enabled
}

// NewReceiver opens a UDP sink on host (port chosen by the OS).
func NewReceiver(host string) (*Receiver, error) {
	if host == "" {
		host = "127.0.0.1"
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.ParseIP(host)})
	if err != nil {
		return nil, fmt.Errorf("client: opening receiver: %w", err)
	}
	r := &Receiver{conn: conn}
	r.wg.Add(1)
	go r.loop()
	return r, nil
}

// SetCapture toggles payload retention (off by default — media streams
// are large).
func (r *Receiver) SetCapture(on bool) { //nolint:testonly // capture for the root tests' end-to-end delivery checks
	r.mu.Lock()
	r.capture = on
	r.mu.Unlock()
}

// Addr reports the receiver's UDP address, for display-port
// registration.
func (r *Receiver) Addr() string { return r.conn.LocalAddr().String() }

func (r *Receiver) loop() {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		now := time.Now()
		r.mu.Lock()
		r.arrivals = append(r.arrivals, now)
		r.sizes = append(r.sizes, n)
		r.bytes += int64(n)
		if r.capture {
			cp := make([]byte, n)
			copy(cp, buf[:n])
			r.payloads = append(r.payloads, cp)
		}
		r.mu.Unlock()
	}
}

// Count reports the number of datagrams received.
func (r *Receiver) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.arrivals)
}

// Bytes reports total payload bytes received.
func (r *Receiver) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Packets snapshots what arrived so far.
func (r *Receiver) Packets() []Packet { //nolint:testonly // capture for the root tests' end-to-end delivery checks
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Packet, len(r.arrivals))
	for i := range r.arrivals {
		out[i] = Packet{At: r.arrivals[i], Size: r.sizes[i]}
		if r.capture && i < len(r.payloads) {
			out[i].Payload = r.payloads[i]
		}
	}
	return out
}

// WaitCount blocks until at least n datagrams arrived or the timeout
// passes, reporting success.
func (r *Receiver) WaitCount(n int, timeout time.Duration) bool { //nolint:testonly // capture for the root tests' end-to-end delivery checks
	deadline := time.Now().Add(timeout)
	for {
		if r.Count() >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Span reports the time between the first and last arrivals.
func (r *Receiver) Span() time.Duration { //nolint:testonly // capture for the root tests' end-to-end delivery checks
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.arrivals) < 2 {
		return 0
	}
	return r.arrivals[len(r.arrivals)-1].Sub(r.arrivals[0])
}

// Close shuts the receiver down.
func (r *Receiver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	err := r.conn.Close()
	r.wg.Wait()
	return err
}
