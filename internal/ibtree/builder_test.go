package ibtree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"
)

// The builder rewrites one page in place for every block. These tests hold
// what that must not change: the bytes on disk.

// The golden shape is a tree whose pages would show a stale byte: 1 KB pages,
// 4-key internal pages cascading into data pages mid-stream, and payloads
// of varying length and content, so no page's records line up with the
// previous page's.
const (
	goldenPageSize = 1024
	goldenMaxKeys  = 4
	goldenPackets  = 2000
)

func goldenPacket(i int) Packet {
	p := make([]byte, 1+i*37%200)
	for j := range p {
		p[j] = byte(i + j*13)
	}
	return Packet{Time: time.Duration(i/3) * time.Millisecond, Payload: p}
}

// buildGolden writes the golden shape into f, one packet at a time
// through add.
func buildGolden(t *testing.T, f BlockFile, add func(*Builder, Packet) error) Meta {
	t.Helper()
	b, err := NewBuilder(f, goldenPageSize, goldenMaxKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenPackets; i++ {
		if err := add(b, goldenPacket(i)); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func reservePacket(b *Builder, pkt Packet) error {
	dst, err := b.Reserve(pkt.Time, len(pkt.Payload))
	if err == nil {
		copy(dst, pkt.Payload)
	}
	return err
}

func sameFiles(t *testing.T, got, want *memFile, pages int64) {
	t.Helper()
	for i := int64(0); i < pages; i++ {
		if !bytes.Equal(got.blocks[i], want.blocks[i]) {
			t.Fatalf("block %d differs", i)
		}
	}
	if len(got.blocks) != len(want.blocks) {
		t.Fatalf("%d blocks, want %d", len(got.blocks), len(want.blocks))
	}
}

// TestBuilderGolden pins the golden shape's bytes: the CRC-32 of every
// block, as the builder wrote them when it made a fresh page for each.
func TestBuilderGolden(t *testing.T) {
	const want = 0x9a487e37
	f := newMemFile(goldenPageSize)
	meta := buildGolden(t, f, (*Builder).Append)
	crc := crc32.NewIEEE()
	for i := int64(0); i < meta.Pages; i++ {
		crc.Write(f.blocks[i])
	}
	if got := crc.Sum32(); got != want {
		t.Errorf("the %d blocks' CRC-32 is %08x, want %08x", meta.Pages, got, want)
	}
}

// TestReserveBuildsWhatAppendBuilds: Reserve and a copy write the same file
// as Append.
func TestReserveBuildsWhatAppendBuilds(t *testing.T) {
	appended, reserved := newMemFile(goldenPageSize), newMemFile(goldenPageSize)
	want := buildGolden(t, appended, (*Builder).Append)
	got := buildGolden(t, reserved, reservePacket)
	if got != want {
		t.Fatalf("Reserve built %+v, Append %+v", got, want)
	}
	sameFiles(t, reserved, appended, want.Pages)
}

// TestPageTailsZero walks every record of every page: the header's
// reserved word, each record's pad bytes and everything past the last
// record are zero, as they were on a fresh page.
func TestPageTailsZero(t *testing.T) {
	f := newMemFile(goldenPageSize)
	meta := buildGolden(t, f, reservePacket)
	for i := int64(0); i < meta.Pages; i++ {
		page := f.blocks[i]
		if binary.BigEndian.Uint32(page[0:4]) != pageMagic || binary.BigEndian.Uint32(page[4:8]) != 0 {
			t.Fatalf("page %d header %x", i, page[:pageHdrLen])
		}
		off := pageHdrLen
		for off < len(page) && page[off] != kindEnd {
			if !bytes.Equal(page[off+1:off+4], []byte{0, 0, 0}) {
				t.Fatalf("page %d: record at %d has pad bytes %x", i, off, page[off+1:off+4])
			}
			n := int(binary.BigEndian.Uint32(page[off+4 : off+8]))
			switch page[off] {
			case kindPacket:
				off += packetHdrLen + n
			case kindInternal:
				off += embedHdrLen + n
			default:
				t.Fatalf("page %d: record kind %d at %d", i, page[off], off)
			}
		}
		if off < len(page) && !bytes.Equal(page[off:], make([]byte, len(page)-off)) {
			t.Fatalf("page %d: bytes past its last record (at %d) are not zero", i, off)
		}
	}
}

// failOnce fails one WriteBlock, the n-th, and takes every other.
type failOnce struct {
	*memFile
	n, calls int
}

var errWriteFault = errors.New("injected write fault")

func (f *failOnce) WriteBlock(i int64, p []byte) error {
	f.calls++
	if f.calls == f.n {
		return errWriteFault
	}
	return f.memFile.WriteBlock(i, p)
}

// TestFailedWriteRetriesSameBytes fails one page write while the golden
// shape is appended (Finalize's writes are not retried, so the fault
// lands before them). The packet whose append hit it is refused and
// handed in again, which writes the page it was waiting on: the file ends
// as one that never failed.
func TestFailedWriteRetriesSameBytes(t *testing.T) {
	clean := newMemFile(goldenPageSize)
	want := buildGolden(t, clean, reservePacket)
	for _, n := range []int{1, 2, int(want.Pages / 3), int(want.Pages / 2), int(want.Pages * 3 / 4)} {
		flaky := &failOnce{memFile: newMemFile(goldenPageSize), n: n}
		failed := 0
		got := buildGolden(t, flaky, func(b *Builder, pkt Packet) error {
			err := reservePacket(b, pkt)
			if errors.Is(err, errWriteFault) {
				failed++
				err = reservePacket(b, pkt)
			}
			return err
		})
		if failed != 1 {
			t.Fatalf("write %d: %d appends failed, want 1", n, failed)
		}
		if got != want {
			t.Fatalf("write %d failed once: built %+v, want %+v", n, got, want)
		}
		sameFiles(t, flaky.memFile, clean, want.Pages)
	}
}
