package blockdev_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/units"
)

// fastSim builds a Sim over fresh memory with mechanical delays scaled
// down to keep the test quick but nonzero.
func fastSim(t *testing.T, size int64) (*blockdev.Sim, *blockdev.Mem) {
	t.Helper()
	m, err := blockdev.NewMem(size)
	if err != nil {
		t.Fatal(err)
	}
	cfg := blockdev.DefaultSimConfig()
	cfg.TimeScale = 10000
	return blockdev.NewSim(m, cfg), m
}

// TestSimDataPath verifies Sim is transparent to the data: writes and
// reads hit the backing device unchanged, vectored reads scatter into
// each buffer.
func TestSimDataPath(t *testing.T) {
	s, _ := fastSim(t, 1<<20)
	want := []byte("seek, rotate, transfer")
	if err := s.WriteAt(want, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q, want %q", got, want)
	}

	a, b := make([]byte, 11), make([]byte, 11)
	if err := s.ReadAtv(4096, a, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(append([]byte(nil), a...), b...), want) {
		t.Fatalf("vectored read got %q+%q, want %q split across buffers", a, b, want)
	}
}

// TestSimAccounting verifies the deterministic mechanical counters: op
// count, head travel, and busy time that grows with seek distance.
func TestSimAccounting(t *testing.T) {
	s, _ := fastSim(t, 1<<20)
	buf := make([]byte, 4096)
	if err := s.ReadAt(buf, 0); err != nil { // head 0 → 4096, no seek
		t.Fatal(err)
	}
	if err := s.ReadAt(buf, 512*1024); err != nil { // long seek
		t.Fatal(err)
	}
	if got := s.Ops(); got != 2 {
		t.Fatalf("Ops = %d, want 2", got)
	}
	wantSeek := int64(512*1024 - 4096)
	if got := s.SeekBytes(); got != wantSeek {
		t.Fatalf("SeekBytes = %d, want %d", got, wantSeek)
	}
	// Busy time covers at least the media transfers plus one settle.
	cfg := blockdev.DefaultSimConfig()
	minBusy := 2*cfg.MediaRate.Duration(4096) + cfg.SeekSettle
	if got := s.BusyTime(); got < minBusy {
		t.Fatalf("BusyTime = %v, want at least %v", got, minBusy)
	}
}

// TestSimCoalescedCheaper verifies the mechanical payoff coalescing is
// after: one vectored transfer of N blocks costs less mechanism time
// than N separate transfers of the same blocks (one seek+rotation
// amortized across the group).
func TestSimCoalescedCheaper(t *testing.T) {
	const block, n = 4096, 8
	single, _ := fastSim(t, 1<<20)
	buf := make([]byte, block)
	// Force a repositioning before each read: hop away, then read the
	// next sequential block, as an unscheduled reader interleaved with
	// others would.
	for i := 0; i < n; i++ {
		if err := single.ReadAt(buf, 900*1024); err != nil {
			t.Fatal(err)
		}
		if err := single.ReadAt(buf, int64(i)*block); err != nil {
			t.Fatal(err)
		}
	}

	coalesced, _ := fastSim(t, 1<<20)
	if err := coalesced.ReadAt(buf, 900*1024); err != nil {
		t.Fatal(err)
	}
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = make([]byte, block)
	}
	if err := coalesced.ReadAtv(0, bufs...); err != nil {
		t.Fatal(err)
	}

	// Compare only the mechanism time spent on the n data blocks (strip
	// the hop reads, which differ in count between the two runs).
	if single.BusyTime() <= coalesced.BusyTime() {
		t.Fatalf("scattered reads busy %v, coalesced busy %v: coalescing should be cheaper",
			single.BusyTime(), coalesced.BusyTime())
	}
	if co, si := coalesced.Ops(), single.Ops(); co != 2 || si != int64(2*n) {
		t.Fatalf("ops coalesced=%d single=%d, want 2 and %d", co, si, 2*n)
	}
}

// TestSimTimeScale verifies TimeScale divides the wall-clock delay but
// not the accounted busy time.
func TestSimTimeScale(t *testing.T) {
	m, err := blockdev.NewMem(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := blockdev.DefaultSimConfig()
	cfg.TimeScale = 1e6 // mechanical milliseconds become nanoseconds
	s := blockdev.NewSim(m, cfg)
	buf := make([]byte, 64*1024)
	start := time.Now()
	if err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("scaled read took %v wall time", elapsed)
	}
	if busy := s.BusyTime(); busy < cfg.MediaRate.Duration(64*1024) {
		t.Fatalf("BusyTime %v below the unscaled transfer time", busy)
	}
}

// TestSimSleepsOutsideItsLock: a transfer sleeps out its mechanical time
// without holding the Sim's lock, so Ops answers while a long one is in
// flight; and the mechanism is still one resource, so two concurrent
// transfers finish no earlier than the sum of their costs.
func TestSimSleepsOutsideItsLock(t *testing.T) {
	m, err := blockdev.NewMem(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := blockdev.DefaultSimConfig()
	cfg.SeekSettle, cfg.SeekFullSpan, cfg.RotationPeriod = 0, 0, 0 // media time alone
	cfg.MediaRate = units.Mbps
	const n = 37500 // 300 ms at 1 Mbit/s
	cost := cfg.MediaRate.Duration(n)
	s := blockdev.NewSim(m, cfg)
	read := func(done chan<- time.Time) {
		if err := s.ReadAt(make([]byte, n), 0); err != nil {
			t.Error(err)
		}
		done <- time.Now()
	}

	start := time.Now()
	done := make(chan time.Time, 2)
	go read(done)
	for s.Ops() == 0 {
		runtime.Gosched()
	}
	if took := time.Since(start); took > cost/2 {
		t.Fatalf("Ops saw the transfer after %v: it waited for the %v transfer", took, cost)
	}
	<-done

	start = time.Now()
	go read(done)
	go read(done)
	<-done
	if last := <-done; last.Sub(start) < 2*cost {
		t.Fatalf("two concurrent %v transfers both done after %v", cost, last.Sub(start))
	}
	if got := s.Ops(); got != 3 {
		t.Fatalf("Ops = %d, want 3", got)
	}
}
