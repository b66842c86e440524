package ibtree

import (
	"testing"
	"time"
)

// benchTree builds an in-memory tree of n packets for the cursor
// benches: 4 KB payloads in 64 KB pages, the shapes the MSU serves.
func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	const pageSize = 64 * 1024
	f := newMemFile(pageSize)
	bld, err := NewBuilder(f, pageSize, DefaultMaxKeys)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	for i := 0; i < n; i++ {
		if err := bld.Append(Packet{Time: time.Duration(i) * time.Millisecond, Payload: payload}); err != nil {
			b.Fatal(err)
		}
	}
	meta, err := bld.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Open(f, pageSize, meta)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkCursorNext measures the classic per-packet cursor: one
// *Packet allocation per read (the pre-zero-copy read path).
func BenchmarkCursorNext(b *testing.B) {
	const n = 1 << 14
	tr := benchTree(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	var c *Cursor
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			var err error
			if c, err = tr.Begin(); err != nil {
				b.Fatal(err)
			}
		}
		pkt, err := c.Next()
		if err != nil || pkt == nil {
			b.Fatalf("Next: %v, %v", pkt, err)
		}
	}
}

// BenchmarkPageCursorNext measures the page-granular cursor the
// zero-copy delivery path runs on: whole pages into a caller-owned
// buffer, value spans out — 0 allocs per packet.
func BenchmarkPageCursorNext(b *testing.B) {
	const n = 1 << 14
	tr := benchTree(b, n)
	buf := make([]byte, tr.PageSize())
	b.ReportAllocs()
	b.ResetTimer()
	var pc *PageCursor
	inPage := false
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			var err error
			if pc, err = tr.PageCursorAt(0); err != nil {
				b.Fatal(err)
			}
			inPage = false
		}
		for {
			if !inPage {
				ok, err := pc.LoadPage(buf)
				if err != nil || !ok {
					b.Fatalf("LoadPage: %v, %v", ok, err)
				}
				inPage = true
			}
			_, ok, err := pc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				break
			}
			inPage = false
		}
	}
}

// BenchmarkSeekTime measures a full root-to-leaf seek; the descent now
// reuses one scratch page across all levels.
func BenchmarkSeekTime(b *testing.B) {
	const n = 1 << 16
	tr := benchTree(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := time.Duration(i%n) * time.Millisecond
		if _, err := tr.SeekTime(tm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageCursorAt prices the three ways a player is positioned:
// zero is a play from the start (no descent at all), warm a seek through
// a resident index (memo hits, nothing page-sized allocated), cold the
// first seek into a title (every node on the path read and decoded).
func BenchmarkPageCursorAt(b *testing.B) {
	const n = 1 << 16
	tr := benchTree(b, n)
	at := func(i int) time.Duration { return time.Duration(1+i%(n-1)) * time.Millisecond }
	b.Run("zero", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tr.PageCursorAt(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < n; i += 64 { // visit every level-1 node once
			if _, err := tr.PageCursorAt(at(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.PageCursorAt(at(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh, err := Open(tr.f, tr.pageSize, tr.meta)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fresh.PageCursorAt(at(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
