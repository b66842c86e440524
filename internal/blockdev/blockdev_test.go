package blockdev

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"testing/quick"
)

// deviceUnderTest runs the common BlockDevice contract tests.
func deviceContract(t *testing.T, dev BlockDevice, size int64) {
	t.Helper()
	if dev.Size() != size {
		t.Fatalf("Size() = %d, want %d", dev.Size(), size)
	}

	// Fresh device reads as zeros.
	buf := make([]byte, 64)
	if err := dev.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt fresh: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("fresh device not zeroed")
	}

	// Round trip at an interior offset.
	want := []byte("calliope multimedia storage unit")
	if err := dev.WriteAt(want, 128); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(want))
	if err := dev.ReadAt(got, 128); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip mismatch: %q != %q", got, want)
	}

	// Boundary conditions.
	if err := dev.WriteAt([]byte{1}, size-1); err != nil {
		t.Fatalf("write at last byte: %v", err)
	}
	if err := dev.WriteAt([]byte{1}, size); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: got %v, want ErrOutOfRange", err)
	}
	if err := dev.ReadAt(make([]byte, 2), size-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read spanning end: got %v, want ErrOutOfRange", err)
	}
	if err := dev.ReadAt(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: got %v, want ErrOutOfRange", err)
	}
}

func TestMemContract(t *testing.T) {
	dev, err := NewMem(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	deviceContract(t, dev, 4096)
}

func TestFileContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk0")
	dev, err := OpenFile(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	deviceContract(t, dev, 4096)
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk0")
	dev, err := OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteAt([]byte("persist"), 10); err != nil {
		t.Fatal(err)
	}
	dev.Close()

	dev2, err := OpenFile(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	got := make([]byte, 7)
	if err := dev2.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist" {
		t.Fatalf("reopened read = %q", got)
	}
}

func TestInvalidSizes(t *testing.T) {
	if _, err := NewMem(0); err == nil {
		t.Error("NewMem(0) accepted")
	}
	if _, err := NewMem(-5); err == nil {
		t.Error("NewMem(-5) accepted")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "x"), 0); err == nil {
		t.Error("OpenFile size 0 accepted")
	}
}

func TestMemClosed(t *testing.T) {
	dev, _ := NewMem(100)
	dev.Close()
	if err := dev.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if err := dev.WriteAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
}

func TestCounting(t *testing.T) {
	base, _ := NewMem(1024)
	dev := NewCounting(base)
	dev.WriteAt(make([]byte, 100), 0)
	dev.WriteAt(make([]byte, 50), 100)
	dev.ReadAt(make([]byte, 150), 0)
	if got := dev.Writes.Load(); got != 2 {
		t.Errorf("Writes = %d, want 2", got)
	}
	if got := dev.BytesWritten.Load(); got != 150 {
		t.Errorf("BytesWritten = %d, want 150", got)
	}
	if got := dev.Reads.Load(); got != 1 {
		t.Errorf("Reads = %d, want 1", got)
	}
	if got := dev.BytesRead.Load(); got != 150 {
		t.Errorf("BytesRead = %d, want 150", got)
	}
}

// Property: non-overlapping writes are all independently readable.
func TestMemWriteReadProperty(t *testing.T) {
	dev, _ := NewMem(1 << 16)
	f := func(chunks [][]byte) bool {
		off := int64(0)
		var offsets []int64
		for _, c := range chunks {
			if len(c) == 0 || off+int64(len(c)) > dev.Size() {
				break
			}
			if err := dev.WriteAt(c, off); err != nil {
				return false
			}
			offsets = append(offsets, off)
			off += int64(len(c))
		}
		off = 0
		for i, c := range chunks {
			if i >= len(offsets) {
				break
			}
			got := make([]byte, len(c))
			if err := dev.ReadAt(got, offsets[i]); err != nil {
				return false
			}
			if !bytes.Equal(got, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCountingStatsAndReset(t *testing.T) {
	mem, err := NewMem(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewCounting(mem)
	var _ StatReader = dev // Counting implements StatReader
	buf := make([]byte, 512)
	if err := dev.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	for i := 0; i < 3; i++ {
		if err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := dev.Stats().Sub(before)
	if d.Reads != 3 || d.BytesRead != 3*512 || d.Writes != 0 {
		t.Fatalf("delta = %+v", d)
	}
	if got := dev.Stats(); got.Writes != 1 || got.BytesWritten != 512 {
		t.Fatalf("stats = %+v", got)
	}
	dev.Reset()
	if got := dev.Stats(); got != (IOStats{}) {
		t.Fatalf("stats after Reset = %+v", got)
	}
}
