package schedule

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"calliope/internal/units"
)

func TestDutyCycleSizingPaperNumbers(t *testing.T) {
	// 256 KB block at 1.5 Mbit/s plays for ~1.4 s. With a worst-case
	// disk transfer of ~60 ms (seek + rotation + 256 KB at ~5 MB/s),
	// a disk sustains ~23 streams — the paper's measured MSU limit of
	// 22 (for two disks sharing a bus) is the same order.
	d, err := NewDutyCycle(256*units.KB, 1500*units.Kbps, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if d.Slots() < 20 || d.Slots() > 25 {
		t.Errorf("Slots = %d, want ~23", d.Slots())
	}
	if d.CycleLength() != time.Duration(d.Slots())*60*time.Millisecond {
		t.Errorf("CycleLength = %v", d.CycleLength())
	}
	if d.MaxStartDelay() != time.Duration(d.Slots()-1)*60*time.Millisecond {
		t.Errorf("MaxStartDelay = %v", d.MaxStartDelay())
	}
}

func TestDutyCycleAdmission(t *testing.T) {
	d, err := NewDutyCycle(64*units.KB, 8*units.Mbps, 16*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	n := d.Slots()
	slots := make([]int, n)
	for i := 0; i < n; i++ {
		s, err := d.Allocate()
		if err != nil {
			t.Fatalf("Allocate %d/%d: %v", i, n, err)
		}
		slots[i] = s
	}
	if d.InUse() != n {
		t.Fatalf("InUse = %d, want %d", d.InUse(), n)
	}
	if _, err := d.Allocate(); !errors.Is(err, ErrFull) {
		t.Fatalf("over-admission: %v", err)
	}
	if err := d.Release(slots[2]); err != nil {
		t.Fatal(err)
	}
	s, err := d.Allocate()
	if err != nil || s != slots[2] {
		t.Fatalf("released slot not reused: %d, %v", s, err)
	}
}

func TestDutyCycleReleaseValidation(t *testing.T) {
	d, _ := NewDutyCycle(64*units.KB, 8*units.Mbps, 16*time.Millisecond)
	if err := d.Release(-1); !errors.Is(err, ErrBadSlot) {
		t.Errorf("negative slot: %v", err)
	}
	if err := d.Release(d.Slots()); !errors.Is(err, ErrBadSlot) {
		t.Errorf("out-of-range slot: %v", err)
	}
	if err := d.Release(0); !errors.Is(err, ErrBadSlot) {
		t.Errorf("double free: %v", err)
	}
}

func TestDutyCycleTooSlowDisk(t *testing.T) {
	// A slot longer than the block play time means the disk cannot
	// feed even a single stream.
	if _, err := NewDutyCycle(64*units.KB, 100*units.Mbps, time.Second); err == nil {
		t.Fatal("impossible duty cycle accepted")
	}
}

func TestDutyCycleBadParams(t *testing.T) {
	if _, err := NewDutyCycle(0, units.Mbps, time.Millisecond); err == nil {
		t.Error("zero block accepted")
	}
	if _, err := NewDutyCycle(units.KB, 0, time.Millisecond); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewDutyCycle(units.KB, units.Mbps, 0); err == nil {
		t.Error("zero slot time accepted")
	}
}

func TestSlotStart(t *testing.T) {
	d, _ := NewDutyCycle(256*units.KB, 1500*units.Kbps, 50*time.Millisecond)
	got, err := d.SlotStart(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := 2*d.CycleLength() + 150*time.Millisecond
	if got != want {
		t.Fatalf("SlotStart = %v, want %v", got, want)
	}
	if _, err := d.SlotStart(d.Slots(), 0); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("bad slot: %v", err)
	}
}

func TestStripedDutyCycle(t *testing.T) {
	single, err := NewDutyCycle(256*units.KB, 1500*units.Kbps, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	striped, err := NewStripedDutyCycle(256*units.KB, 1500*units.Kbps, 50*time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	// §2.3.3: N disks → N×D slots, and the VCR-command delay grows N×.
	if striped.Slots() != 4*single.Slots() {
		t.Errorf("striped slots = %d, want %d", striped.Slots(), 4*single.Slots())
	}
	ratio := float64(striped.MaxStartDelay()) / float64(single.MaxStartDelay())
	if ratio < 3.9 || ratio > 4.2 {
		t.Errorf("striped delay ratio = %.2f, want ~4", ratio)
	}
	if _, err := NewStripedDutyCycle(256*units.KB, 1500*units.Kbps, 50*time.Millisecond, 0); err == nil {
		t.Error("zero disks accepted")
	}
}

func TestLedgerReserveRelease(t *testing.T) {
	l, err := NewLedger(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(1, 400); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(2, 400); err != nil {
		t.Fatal(err)
	}
	if l.Available() != 200 || l.Reserved() != 800 {
		t.Fatalf("Available=%d Reserved=%d", l.Available(), l.Reserved())
	}
	if err := l.Reserve(3, 300); !errors.Is(err, ErrOverdrawn) {
		t.Fatalf("overdraw: %v", err)
	}
	if err := l.Reserve(1, 10); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := l.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve(3, 300); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
	if err := l.Release(99); !errors.Is(err, ErrNoSuchEntry) {
		t.Fatalf("release unknown: %v", err)
	}
}

func TestLedgerValidation(t *testing.T) {
	if _, err := NewLedger(-1); err == nil {
		t.Error("negative capacity accepted")
	}
	l, _ := NewLedger(10)
	if err := l.Reserve(1, -5); err == nil {
		t.Error("negative reservation accepted")
	}
}

// Property: any sequence of reserve/release keeps
// 0 ≤ Reserved ≤ Capacity and Reserved == sum of live entries.
func TestLedgerInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		l, _ := NewLedger(10000)
		live := map[uint64]int64{}
		for i, op := range ops {
			key := uint64(op % 8)
			amount := int64(op % 3000)
			switch (op / 8) % 2 {
			case 0:
				if err := l.Reserve(key, amount); err == nil {
					live[key] = amount
				}
			case 1:
				if err := l.Release(key); err == nil {
					delete(live, key)
				}
			}
			var sum int64
			for _, v := range live {
				sum += v
			}
			if l.Reserved() != sum || l.Reserved() < 0 || l.Reserved() > l.Capacity() {
				t.Logf("op %d: reserved=%d sum=%d", i, l.Reserved(), sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: slot allocation never double-books and Release always
// makes room again.
func TestDutyCycleSlotProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		d, err := NewDutyCycle(64*units.KB, 4*units.Mbps, 10*time.Millisecond)
		if err != nil {
			return false
		}
		held := map[int]bool{}
		for _, op := range ops {
			if op%2 == 0 {
				s, err := d.Allocate()
				if err != nil {
					if len(held) != d.Slots() {
						return false // ErrFull while slots remain
					}
					continue
				}
				if held[s] {
					return false // double-booked
				}
				held[s] = true
			} else if len(held) > 0 {
				for s := range held {
					if err := d.Release(s); err != nil {
						return false
					}
					delete(held, s)
					break
				}
			}
			if d.InUse() != len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
