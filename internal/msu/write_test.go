package msu

// The content write path (content.go's packetWriter, ingest and the
// recorder): what it puts on the disk, byte for byte, and what it costs a
// packet. Every payload byte is copied once, into the IB-tree builder's
// one page; nothing is allocated per packet or per page.

import (
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
	"calliope/internal/units"
)

// memStore is a 32 MB memory store with the given block size (0: the
// file system's default, the paper's 256 KB).
func memStore(tb testing.TB, blockSize int) msufs.Store {
	tb.Helper()
	dev, err := blockdev.NewMem(32 * int64(units.MB))
	if err != nil {
		tb.Fatal(err)
	}
	vol, err := msufs.Format(dev, msufs.Options{BlockSize: blockSize})
	if err != nil {
		tb.Fatal(err)
	}
	return msufs.NewStore(vol)
}

// fixedPackets is a title of n packets of size bytes, 2 ms apart, each
// filled from its own index so that no two pages hold the same bytes.
func fixedPackets(size, n int) []media.Packet {
	pkts := make([]media.Packet, n)
	for i := range pkts {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		pkts[i] = media.Packet{Time: time.Duration(i) * 2 * time.Millisecond, Payload: p}
	}
	return pkts
}

// TestIngestGolden pins the bytes ingest puts on a disk: the CRC-32 of
// every block of three titles (4 KB, 1 KB and 333 B packets, 3,000
// each) in 256 KB pages, as they were when the writer framed each packet
// in a fresh buffer and the builder made a fresh page for every block.
func TestIngestGolden(t *testing.T) {
	const want = 0xe2aea5ea
	store := memStore(t, 0)
	crc := crc32.NewIEEE()
	buf := make([]byte, store.BlockSize())
	for _, size := range []int{4096, 1024, 333} {
		name := fmt.Sprintf("golden-%d", size)
		if err := Ingest(store, name, "mpeg1", fixedPackets(size, 3000)); err != nil {
			t.Fatal(err)
		}
		f, err := store.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i*int64(len(buf)) < f.Size(); i++ {
			if err := f.ReadBlock(i, buf); err != nil {
				t.Fatal(err)
			}
			crc.Write(buf) //nolint:errcheck // a hash.Hash never fails a write
		}
	}
	if got := crc.Sum32(); got != want {
		t.Errorf("the three titles' blocks have CRC-32 %08x, want %08x", got, want)
	}
}

// newTestRecorder is a recorder over a fresh file of store with the
// constant-rate module's schedule, as newRecordStream makes one, minus
// the sockets.
func newTestRecorder(tb testing.TB, store msufs.Store, name string) *recorder {
	tb.Helper()
	ext, err := protocol.Default.New("cbr", protocol.Config{Rate: 1500 * units.Kbps})
	if err != nil {
		tb.Fatal(err)
	}
	w, err := (&fileSet{store: store}).packets(name, 8*int64(units.MB))
	if err != nil {
		tb.Fatal(err)
	}
	return &recorder{s: &stream{m: &MSU{}}, ext: ext, w: w}
}

// TestWritePathAllocationPins is TestDeliveryAllocationPins' twin on the
// write side: appending a packet, through the content writer and through
// a recorder, allocates nothing, across many page writes.
func TestWritePathAllocationPins(t *testing.T) {
	const packets = 2000 // 1 KB each into 64 KB pages: ~32 page writes
	payload := make([]byte, 1024)
	for _, tc := range []struct {
		name string
		// file starts a file on store and returns it with what appends
		// packet i to it.
		file func(store msufs.Store) (msufs.StoreFile, func(i int) error)
	}{
		{"packetWriter", func(store msufs.Store) (msufs.StoreFile, func(int) error) {
			w, err := (&fileSet{store: store}).packets("pin", 8*int64(units.MB))
			if err != nil {
				t.Fatal(err)
			}
			return w.file, func(i int) error { return w.append(time.Duration(i)*time.Millisecond, protocol.Data, payload) }
		}},
		{"recorder", func(store msufs.Store) (msufs.StoreFile, func(int) error) {
			rec := newTestRecorder(t, store, "pin")
			epoch := time.Now()
			return rec.w.file, func(i int) error {
				rec.append(protocol.Data, payload, epoch.Add(time.Duration(i)*time.Millisecond))
				if rec.dropped > 0 {
					return fmt.Errorf("packet %d dropped", i)
				}
				return nil
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := memStore(t, 64*1024)
			file, add := tc.file(store)
			i := 0
			allocs := testing.AllocsPerRun(packets, func() {
				if err := add(i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if pages := file.Size() / int64(store.BlockSize()); pages < packets/100 {
				t.Fatalf("%d packets wrote %d pages: the pin does not cross page writes", i, pages)
			}
			if allocs > 0 {
				t.Errorf("%.0f allocations per appended packet, want 0", allocs)
			}
		})
	}
}

// BenchmarkIngest prices msu.Ingest: one op is a 4,800-packet title into a
// memory volume of 256 KB blocks (the volume's up-front zeroing is not in
// it), MB/s of payload.
func BenchmarkIngest(b *testing.B) {
	for _, size := range []int{4096, 1024} {
		b.Run(fmt.Sprintf("%dK", size/1024), func(b *testing.B) {
			store := memStore(b, 0)
			pkts := fixedPackets(size, 4800)
			b.SetBytes(int64(size * len(pkts)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Ingest(store, "title", "mpeg1", pkts); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := store.Remove("title"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRecordAppend prices one received 1 KB packet on its way into a
// recording: delivery time, framing and its share of the page write, on a
// memory volume of 256 KB blocks.
func BenchmarkRecordAppend(b *testing.B) {
	const perFile = 4800 // ~5 MB of the recording's 8 MB reservation
	store := memStore(b, 0)
	payload := make([]byte, 1024)
	epoch := time.Now()
	var rec *recorder
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perFile == 0 {
			b.StopTimer()
			if rec != nil {
				if err := rec.w.set.abort(); err != nil {
					b.Fatal(err)
				}
			}
			rec = newTestRecorder(b, store, "take")
			b.StartTimer()
		}
		rec.append(protocol.Data, payload, epoch.Add(time.Duration(i)*time.Millisecond))
	}
	b.StopTimer()
	if rec.dropped > 0 {
		b.Fatalf("%d packets dropped", rec.dropped)
	}
}
