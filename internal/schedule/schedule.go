// Package schedule implements Calliope's disk bandwidth allocation:
// the duty cycle (§2.2.1) and the bandwidth/space ledgers the
// Coordinator schedules against (§2.2).
//
// A disk gets a duty cycle divided into slots; each slot is long enough
// to transfer one file block for one client stream, and the cycle holds
// as many slots as block transfers fit into the time one stream takes
// to transmit its block. A stream therefore gets exactly one block per
// cycle — just in time for its network process to keep sending — and a
// disk admits at most one stream per slot. In a striped layout the
// cycle covers all N disks and has N×D slots, which multiplies both
// capacity and the worst-case VCR-command delay.
package schedule

import (
	"errors"
	"fmt"
	"time"

	"calliope/internal/units"
)

// Package errors.
var (
	ErrFull        = errors.New("schedule: duty cycle has no free slot")
	ErrBadSlot     = errors.New("schedule: invalid slot")
	ErrOverdrawn   = errors.New("schedule: reservation exceeds capacity")
	ErrNoSuchEntry = errors.New("schedule: no such reservation")
)

// DutyCycle allocates one disk's slots.
type DutyCycle struct {
	slotTime time.Duration
	slots    []bool // true = occupied
}

// NewDutyCycle sizes a duty cycle. slotTime is the worst-case time to
// move one block between disk and memory (seek + rotation + transfer);
// blockSize and streamRate give the time one stream takes to transmit
// a block, which bounds the cycle.
func NewDutyCycle(blockSize units.ByteSize, streamRate units.BitRate, slotTime time.Duration) (*DutyCycle, error) {
	if blockSize <= 0 || streamRate <= 0 || slotTime <= 0 {
		return nil, fmt.Errorf("schedule: invalid duty cycle parameters (block=%v rate=%v slot=%v)", blockSize, streamRate, slotTime)
	}
	playTime := streamRate.Duration(blockSize)
	n := int(playTime / slotTime)
	if n < 1 {
		return nil, fmt.Errorf("schedule: slot time %v exceeds block play time %v — disk cannot sustain even one stream", slotTime, playTime)
	}
	return &DutyCycle{slotTime: slotTime, slots: make([]bool, n)}, nil
}

// Slots reports the cycle's capacity in streams.
func (d *DutyCycle) Slots() int { return len(d.slots) }

// SlotTime reports the per-slot duration.
func (d *DutyCycle) SlotTime() time.Duration { return d.slotTime }

// CycleLength reports the full cycle duration.
func (d *DutyCycle) CycleLength() time.Duration {
	return d.slotTime * time.Duration(len(d.slots))
}

// MaxStartDelay reports the worst-case wait for a newly admitted stream
// (or a VCR command): the client "must wait at most D−1 slots before
// the MSU begins to deliver data".
func (d *DutyCycle) MaxStartDelay() time.Duration {
	return d.slotTime * time.Duration(len(d.slots)-1)
}

// InUse reports the number of occupied slots.
func (d *DutyCycle) InUse() int {
	n := 0
	for _, used := range d.slots {
		if used {
			n++
		}
	}
	return n
}

// Allocate claims the lowest free slot.
func (d *DutyCycle) Allocate() (int, error) {
	for i, used := range d.slots {
		if !used {
			d.slots[i] = true
			return i, nil
		}
	}
	return 0, ErrFull
}

// Release frees a slot.
func (d *DutyCycle) Release(slot int) error {
	if slot < 0 || slot >= len(d.slots) {
		return fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, len(d.slots))
	}
	if !d.slots[slot] {
		return fmt.Errorf("%w: slot %d already free", ErrBadSlot, slot)
	}
	d.slots[slot] = false
	return nil
}

// SlotStart reports when a slot's transfer begins within cycle number
// cycle, as an offset from time zero.
func (d *DutyCycle) SlotStart(slot int, cycle int64) (time.Duration, error) {
	if slot < 0 || slot >= len(d.slots) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBadSlot, slot, len(d.slots))
	}
	return time.Duration(cycle)*d.CycleLength() + time.Duration(slot)*d.slotTime, nil
}

// NewStripedDutyCycle sizes the duty cycle for an N-disk striped layout
// (§2.3.3): N times the slots of a single disk, and N times the
// worst-case command delay.
func NewStripedDutyCycle(blockSize units.ByteSize, streamRate units.BitRate, slotTime time.Duration, disks int) (*DutyCycle, error) {
	if disks < 1 {
		return nil, fmt.Errorf("schedule: striped cycle needs ≥1 disk, got %d", disks)
	}
	single, err := NewDutyCycle(blockSize, streamRate, slotTime)
	if err != nil {
		return nil, err
	}
	return &DutyCycle{
		slotTime: slotTime,
		slots:    make([]bool, single.Slots()*disks),
	}, nil
}

// Ledger tracks reservations of a scalar resource (disk bandwidth in
// bit/s, or disk space in bytes) against a fixed capacity, keyed by
// stream. The Coordinator keeps one bandwidth ledger per disk and one
// space ledger per disk (§2.2).
type Ledger struct {
	capacity int64
	reserved map[uint64]int64
	total    int64
	// standing is a keyless baseline reservation — the Coordinator
	// models space already occupied by stored content this way, so
	// deleting content simply lowers it.
	standing int64
}

// NewLedger returns a ledger with the given capacity.
func NewLedger(capacity int64) (*Ledger, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("schedule: negative ledger capacity %d", capacity)
	}
	return &Ledger{capacity: capacity, reserved: make(map[uint64]int64)}, nil
}

// Capacity reports the ledger's total capacity.
func (l *Ledger) Capacity() int64 { return l.capacity }

// Available reports the unreserved remainder.
func (l *Ledger) Available() int64 { return l.capacity - l.total - l.standing }

// Reserved reports the sum of live keyed reservations.
func (l *Ledger) Reserved() int64 { return l.total }

// Standing reports the keyless baseline reservation.
func (l *Ledger) Standing() int64 { return l.standing }

// SetStanding replaces the baseline reservation.
func (l *Ledger) SetStanding(amount int64) error {
	if amount < 0 {
		return fmt.Errorf("schedule: negative standing reservation %d", amount)
	}
	if l.total+amount > l.capacity {
		return fmt.Errorf("%w: standing %d over capacity", ErrOverdrawn, amount)
	}
	l.standing = amount
	return nil
}

// AddStanding adjusts the baseline reservation by delta (may be
// negative), clamping at zero.
func (l *Ledger) AddStanding(delta int64) error {
	n := l.standing + delta
	if n < 0 {
		n = 0
	}
	return l.SetStanding(n)
}

// Reserve claims amount under the given key. A key may hold only one
// reservation.
func (l *Ledger) Reserve(key uint64, amount int64) error {
	if amount < 0 {
		return fmt.Errorf("schedule: negative reservation %d", amount)
	}
	if _, ok := l.reserved[key]; ok {
		return fmt.Errorf("schedule: key %d already holds a reservation", key)
	}
	if l.total+l.standing+amount > l.capacity {
		return fmt.Errorf("%w: %d over %d available", ErrOverdrawn, amount, l.Available())
	}
	l.reserved[key] = amount
	l.total += amount
	return nil
}

// Release frees a reservation.
func (l *Ledger) Release(key uint64) error {
	amount, ok := l.reserved[key]
	if !ok {
		return fmt.Errorf("%w: key %d", ErrNoSuchEntry, key)
	}
	delete(l.reserved, key)
	l.total -= amount
	return nil
}
