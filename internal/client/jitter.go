package client

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// JitterBuffer models the client-side smoothing buffer of §2.2.1:
// "clients will have to be able to handle the jitter introduced by the
// multimedia delivery network anyway. We assume that clients have
// enough buffer space to smooth any jitter introduced by either the
// approximate scheduling or the intervening network. A 200 KByte
// buffer will hold more than one second of 1.5 Mbit/sec video."
//
// Packets are admitted with their arrival times; presentation runs a
// fixed Delay behind the first arrival, at the sender's cadence. A
// packet that has not arrived by its presentation time is an underrun
// (a video glitch). The buffer tracks its own high-water mark so a
// client can size real memory.
type JitterBuffer struct {
	delay time.Duration

	mu       sync.Mutex
	epoch    time.Time // arrival time of the first packet
	packets  []jbPacket
	played   int
	depthNow int64
	depthMax int64
	underrun int
}

type jbPacket struct {
	due  time.Time // presentation deadline
	at   time.Time // actual arrival
	size int
}

// NewJitterBuffer creates a buffer presenting delay behind arrival.
func NewJitterBuffer(delay time.Duration) (*JitterBuffer, error) {
	if delay <= 0 {
		return nil, fmt.Errorf("client: jitter buffer needs a positive delay, got %v", delay)
	}
	return &JitterBuffer{delay: delay}, nil
}

// Admit records one packet: offset is the sender's schedule position
// (e.g. the stored delivery time), at its arrival wall-clock time,
// size its bytes.
func (b *JitterBuffer) Admit(offset time.Duration, at time.Time, size int) { //nolint:testonly // §2.2.1's client buffer, measured by E8 (root tests)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.epoch.IsZero() {
		b.epoch = at
	}
	due := b.epoch.Add(b.delay + offset)
	if at.After(due) {
		// Arrived after its presentation slot: glitch.
		b.underrun++
		return
	}
	b.packets = append(b.packets, jbPacket{due: due, at: at, size: size})
	b.depthNow += int64(size)
	if b.depthNow > b.depthMax {
		b.depthMax = b.depthNow
	}
}

// Drain presents everything due by now, returning the bytes released.
// Call it periodically (or after playback, with a late now, to settle).
func (b *JitterBuffer) Drain(now time.Time) int64 { //nolint:testonly // §2.2.1's client buffer, measured by E8 (root tests)
	b.mu.Lock()
	defer b.mu.Unlock()
	// Keep presentation in due order regardless of arrival order.
	sort.Slice(b.packets[b.played:], func(i, j int) bool {
		return b.packets[b.played+i].due.Before(b.packets[b.played+j].due)
	})
	var released int64
	for b.played < len(b.packets) && !b.packets[b.played].due.After(now) {
		released += int64(b.packets[b.played].size)
		b.depthNow -= int64(b.packets[b.played].size)
		b.played++
	}
	return released
}

// Underruns reports packets that missed their presentation slot.
func (b *JitterBuffer) Underruns() int { //nolint:testonly // §2.2.1's client buffer, measured by E8 (root tests)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.underrun
}

// Presented reports packets played out so far.
func (b *JitterBuffer) Presented() int { //nolint:testonly // §2.2.1's client buffer, measured by E8 (root tests)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.played
}

// HighWaterMark reports the peak buffered byte count — the real memory
// a client device needs (the paper argues 200 KB suffices).
func (b *JitterBuffer) HighWaterMark() int64 { //nolint:testonly // §2.2.1's client buffer, measured by E8 (root tests)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.depthMax
}
