package ibtree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/msufs"
	"calliope/internal/units"
)

// memFile is a trivial in-memory BlockFile for unit tests.
type memFile struct {
	bs     int
	blocks map[int64][]byte
}

func newMemFile(bs int) *memFile { return &memFile{bs: bs, blocks: map[int64][]byte{}} }

func (m *memFile) WriteBlock(i int64, p []byte) error {
	b := make([]byte, len(p))
	copy(b, p)
	m.blocks[i] = b
	return nil
}

func (m *memFile) ReadBlock(i int64, p []byte) error {
	b, ok := m.blocks[i]
	if !ok {
		return fmt.Errorf("memFile: no block %d", i)
	}
	copy(p, b)
	return nil
}

func (m *memFile) BlockLen(i int64) int {
	return len(m.blocks[i])
}

// buildTree appends n packets at the given interval with payloads
// identifying their index.
func buildTree(t testing.TB, f BlockFile, pageSize, maxKeys, n int, interval time.Duration, payloadLen int) Meta {
	t.Helper()
	b, err := NewBuilder(f, pageSize, maxKeys)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, payloadLen)
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		payload[1] = byte(i >> 8)
		if err := b.Append(Packet{Time: time.Duration(i) * interval, Payload: payload}); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func pktIndex(p *Packet) int { return int(p.Payload[0]) | int(p.Payload[1])<<8 }

func TestRoundTripSequentialScan(t *testing.T) {
	f := newMemFile(4096)
	const n = 500
	meta := buildTree(t, f, 4096, 8, n, time.Millisecond, 100)
	if meta.Packets != n {
		t.Fatalf("Packets = %d, want %d", meta.Packets, n)
	}
	if meta.Length != (n-1)*time.Millisecond {
		t.Fatalf("Length = %v", meta.Length)
	}
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pkt, err := c.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if pkt == nil {
			t.Fatalf("stream ended early at %d", i)
		}
		if got := pktIndex(pkt); got != i {
			t.Fatalf("packet %d has index %d", i, got)
		}
		if pkt.Time != time.Duration(i)*time.Millisecond {
			t.Fatalf("packet %d time %v", i, pkt.Time)
		}
		if len(pkt.Payload) != 100 {
			t.Fatalf("packet %d len %d", i, len(pkt.Payload))
		}
	}
	if pkt, err := c.Next(); err != nil || pkt != nil {
		t.Fatalf("after end: %v, %v", pkt, err)
	}
	if pkt, err := c.Next(); err != nil || pkt != nil {
		t.Fatalf("idempotent end: %v, %v", pkt, err)
	}
}

func TestSeekExactAndBetween(t *testing.T) {
	f := newMemFile(4096)
	const n = 1000
	meta := buildTree(t, f, 4096, 4, n, 10*time.Millisecond, 64)
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta().RootLevel < 2 {
		t.Fatalf("tree too shallow to exercise traversal: level %d", tr.Meta().RootLevel)
	}
	for _, tc := range []struct {
		seek time.Duration
		want int
	}{
		{0, 0},
		{10 * time.Millisecond, 1},
		{15 * time.Millisecond, 2}, // between packets: next one
		{5000 * time.Millisecond, 500},
		{9990 * time.Millisecond, 999},
		{time.Hour, 999}, // beyond end: last packet
	} {
		c, err := tr.SeekTime(tc.seek)
		if err != nil {
			t.Fatalf("SeekTime(%v): %v", tc.seek, err)
		}
		pkt, err := c.Next()
		if err != nil || pkt == nil {
			t.Fatalf("SeekTime(%v).Next: %v, %v", tc.seek, pkt, err)
		}
		if got := pktIndex(pkt); got != tc.want {
			t.Errorf("SeekTime(%v) = packet %d, want %d", tc.seek, got, tc.want)
		}
	}
}

func TestSeekThenSequential(t *testing.T) {
	f := newMemFile(4096)
	const n = 300
	meta := buildTree(t, f, 4096, 3, n, time.Second, 80)
	tr, _ := Open(f, 4096, meta)
	c, err := tr.SeekTime(100 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < n; i++ {
		pkt, err := c.Next()
		if err != nil || pkt == nil {
			t.Fatalf("Next at %d: %v, %v", i, pkt, err)
		}
		if got := pktIndex(pkt); got != i {
			t.Fatalf("at %d got %d", i, got)
		}
	}
}

func TestDuplicateTimesAllowed(t *testing.T) {
	// Bursty VBR traffic produces many packets with equal delivery
	// times; they must all be stored and replayed in arrival order.
	f := newMemFile(4096)
	b, _ := NewBuilder(f, 4096, 4)
	for i := 0; i < 50; i++ {
		tm := time.Duration(i/10) * time.Second // 10 packets per tick
		if err := b.Append(Packet{Time: tm, Payload: []byte{byte(i), byte(i >> 8)}}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := Open(f, 4096, meta)
	c, _ := tr.Begin()
	for i := 0; i < 50; i++ {
		pkt, err := c.Next()
		if err != nil || pkt == nil {
			t.Fatalf("Next(%d): %v %v", i, pkt, err)
		}
		if got := pktIndex(pkt); got != i {
			t.Fatalf("order violated at %d: got %d", i, got)
		}
	}
}

func TestKeyOrderEnforced(t *testing.T) {
	f := newMemFile(4096)
	b, _ := NewBuilder(f, 4096, 4)
	if err := b.Append(Packet{Time: time.Second, Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(Packet{Time: 500 * time.Millisecond, Payload: []byte{2}}); !errors.Is(err, ErrKeyOrder) {
		t.Fatalf("out-of-order append: %v", err)
	}
}

func TestOversizedPacketRejected(t *testing.T) {
	f := newMemFile(4096)
	b, _ := NewBuilder(f, 4096, 4)
	if err := b.Append(Packet{Payload: make([]byte, b.MaxPacket()+1)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized packet: %v", err)
	}
	if err := b.Append(Packet{Payload: make([]byte, b.MaxPacket())}); err != nil {
		t.Fatalf("max-size packet rejected: %v", err)
	}
}

func TestEmptyFinalize(t *testing.T) {
	f := newMemFile(4096)
	b, _ := NewBuilder(f, 4096, 4)
	if _, err := b.Finalize(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty finalize: %v", err)
	}
}

func TestDoubleFinalize(t *testing.T) {
	f := newMemFile(4096)
	b, _ := NewBuilder(f, 4096, 4)
	b.Append(Packet{Payload: []byte{1, 0}})
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finalize(); !errors.Is(err, ErrFinalized) {
		t.Fatalf("double finalize: %v", err)
	}
	if err := b.Append(Packet{Payload: []byte{2, 0}}); !errors.Is(err, ErrFinalized) {
		t.Fatalf("append after finalize: %v", err)
	}
}

func TestBuilderValidation(t *testing.T) {
	f := newMemFile(64)
	if _, err := NewBuilder(f, 8, 4); err == nil {
		t.Error("tiny page accepted")
	}
	if _, err := NewBuilder(newMemFile(4096), 4096, 1); err == nil {
		t.Error("maxKeys 1 accepted")
	}
	if _, err := NewBuilder(newMemFile(4096), 4096, 1024); err == nil {
		t.Error("1024-key nodes in 4KB pages accepted")
	}
}

func TestOpenValidation(t *testing.T) {
	f := newMemFile(4096)
	meta := buildTree(t, f, 4096, 4, 10, time.Second, 16)
	if _, err := Open(f, 4096, Meta{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty meta: %v", err)
	}
	bad := meta
	bad.Root.Page = meta.Pages + 5
	if _, err := Open(f, 4096, bad); !errors.Is(err, ErrBadPointer) {
		t.Errorf("bad root: %v", err)
	}
}

func TestCorruptPageDetected(t *testing.T) {
	f := newMemFile(4096)
	meta := buildTree(t, f, 4096, 4, 100, time.Second, 64)
	// Smash page 0's magic.
	f.blocks[0][0] ^= 0xFF
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Begin(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt page: %v", err)
	}
}

func TestPaperGeometryIndexOverhead(t *testing.T) {
	// E7: with the paper's geometry (256 KB data pages, 1024-key
	// internal pages) the index overhead on a long recording is ~0.1 %.
	f := newMemFile(int(256 * units.KB))
	b, err := NewBuilder(f, int(256*units.KB), DefaultMaxKeys)
	if err != nil {
		t.Fatal(err)
	}
	// ~30 min of 1.5 Mbit/s video in 4 KB packets ≈ 82k packets.
	payload := make([]byte, 4096)
	interval := units.BitRate(1500 * units.Kbps).Duration(4096 * units.Byte)
	for i := 0; i < 82000; i++ {
		if err := b.Append(Packet{Time: time.Duration(i) * interval, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(meta.IndexBytes) / float64(meta.DataBytes)
	if overhead > 0.002 {
		t.Errorf("index overhead = %.4f%%, want ≤ 0.2%%", overhead*100)
	}
	t.Logf("pages=%d packets=%d index overhead=%.4f%%", meta.Pages, meta.Packets, overhead*100)
}

func TestSingleTransferWrites(t *testing.T) {
	// The IB-tree's point: writing data+index costs exactly one disk
	// transfer per page. Verify via a counting device under msufs.
	dev, _ := blockdev.NewMem(16 * int64(units.MB))
	counting := blockdev.NewCounting(dev)
	vol, err := msufs.Format(counting, msufs.Options{BlockSize: 64 * 1024, MetaSize: 256 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	file, err := vol.Create("content", 8*int64(units.MB), nil)
	if err != nil {
		t.Fatal(err)
	}
	writesBefore := counting.Writes.Load()
	b, err := NewBuilder(file, 64*1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := 0; i < 5000; i++ {
		if err := b.Append(Packet{Time: time.Duration(i) * time.Millisecond, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	gotWrites := counting.Writes.Load() - writesBefore
	if gotWrites != meta.Pages {
		t.Errorf("device writes = %d, data pages = %d: index pages are not integrated", gotWrites, meta.Pages)
	}
}

func TestDeepTree(t *testing.T) {
	// maxKeys=2 forces a tall tree; every seek must still land right.
	f := newMemFile(512)
	meta := buildTree(t, f, 512, 2, 400, time.Second, 32)
	tr, err := Open(f, 512, meta)
	if err != nil {
		t.Fatal(err)
	}
	if meta.RootLevel < 4 {
		t.Fatalf("RootLevel = %d, expected a tall tree", meta.RootLevel)
	}
	for i := 0; i < 400; i += 37 {
		c, err := tr.SeekTime(time.Duration(i) * time.Second)
		if err != nil {
			t.Fatalf("SeekTime(%d): %v", i, err)
		}
		pkt, err := c.Next()
		if err != nil || pkt == nil {
			t.Fatalf("Next after seek %d: %v %v", i, pkt, err)
		}
		if got := pktIndex(pkt); got != i {
			t.Fatalf("seek %d landed on %d", i, got)
		}
	}
}

// Property: for random packet counts, sizes, intervals and tree fan-
// outs, a full scan returns every packet in order and any seek lands on
// the first packet at-or-after the requested time.
func TestScanAndSeekProperty(t *testing.T) {
	f := func(nRaw uint16, fanRaw, sizeRaw uint8) bool {
		n := int(nRaw%400) + 1
		fan := int(fanRaw%14) + 2
		size := int(sizeRaw%120) + 2
		mf := newMemFile(2048)
		b, err := NewBuilder(mf, 2048, fan)
		if err != nil {
			return false
		}
		times := make([]time.Duration, n)
		tm := time.Duration(0)
		for i := 0; i < n; i++ {
			if i%3 != 0 {
				tm += time.Duration(i%5) * time.Millisecond
			}
			times[i] = tm
			p := make([]byte, size)
			p[0] = byte(i)
			p[1] = byte(i >> 8)
			if err := b.Append(Packet{Time: tm, Payload: p}); err != nil {
				return false
			}
		}
		meta, err := b.Finalize()
		if err != nil {
			return false
		}
		tr, err := Open(mf, 2048, meta)
		if err != nil {
			return false
		}
		// Full scan.
		c, err := tr.Begin()
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			pkt, err := c.Next()
			if err != nil || pkt == nil || pktIndex(pkt) != i || pkt.Time != times[i] {
				return false
			}
		}
		if pkt, err := c.Next(); err != nil || pkt != nil {
			return false
		}
		// Seeks at every distinct time and between times.
		for probe := time.Duration(0); probe <= times[n-1]+time.Millisecond; probe += 2 * time.Millisecond {
			c, err := tr.SeekTime(probe)
			if err != nil {
				return false
			}
			pkt, err := c.Next()
			if err != nil || pkt == nil {
				return false
			}
			// Expected: first index with times[i] >= probe; past the
			// end, the first packet at the final time instant.
			target := probe
			if target > times[n-1] {
				target = times[n-1]
			}
			want := n - 1
			for i, ti := range times {
				if ti >= target {
					want = i
					break
				}
			}
			if pktIndex(pkt) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPayloadIntegrityAcrossPages(t *testing.T) {
	f := newMemFile(1024)
	b, _ := NewBuilder(f, 1024, 4)
	const n = 200
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 300)
		p[0], p[1] = byte(i), byte(i>>8)
		if err := b.Append(Packet{Time: time.Duration(i) * time.Millisecond, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	meta, _ := b.Finalize()
	tr, _ := Open(f, 1024, meta)
	c, _ := tr.Begin()
	for i := 0; i < n; i++ {
		pkt, err := c.Next()
		if err != nil || pkt == nil {
			t.Fatalf("Next(%d): %v %v", i, pkt, err)
		}
		for j := 2; j < 300; j++ {
			if pkt.Payload[j] != byte(i) {
				t.Fatalf("packet %d corrupted at byte %d", i, j)
			}
		}
	}
}

func BenchmarkBuilderAppend4K(b *testing.B) {
	f := newMemFile(int(256 * units.KB))
	bl, _ := NewBuilder(f, int(256*units.KB), DefaultMaxKeys)
	payload := make([]byte, 4096)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bl.Append(Packet{Time: time.Duration(i) * time.Millisecond, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialScan(b *testing.B) {
	f := newMemFile(int(256 * units.KB))
	bl, _ := NewBuilder(f, int(256*units.KB), DefaultMaxKeys)
	payload := make([]byte, 4096)
	for i := 0; i < 20000; i++ {
		bl.Append(Packet{Time: time.Duration(i) * time.Millisecond, Payload: payload})
	}
	meta, _ := bl.Finalize()
	tr, _ := Open(f, int(256*units.KB), meta)
	b.SetBytes(4096)
	b.ResetTimer()
	c, _ := tr.Begin()
	for i := 0; i < b.N; i++ {
		pkt, err := c.Next()
		if err != nil {
			b.Fatal(err)
		}
		if pkt == nil {
			c, _ = tr.Begin()
		}
	}
}

func BenchmarkSeek(b *testing.B) {
	f := newMemFile(int(256 * units.KB))
	bl, _ := NewBuilder(f, int(256*units.KB), DefaultMaxKeys)
	payload := make([]byte, 4096)
	for i := 0; i < 50000; i++ {
		bl.Append(Packet{Time: time.Duration(i) * time.Millisecond, Payload: payload})
	}
	meta, _ := bl.Finalize()
	tr, _ := Open(f, int(256*units.KB), meta)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.SeekTime(time.Duration(i%50000) * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
