package iosched

import (
	"fmt"
	"testing"
	"time"

	"calliope/internal/blockdev"
)

// BenchmarkSchedulerPick prices one re-pick — the work the loop does
// between two transfers — at a given queue depth: half the queue is
// inside the deadline band, offsets are scattered and nothing is
// adjacent, so each pick scans the whole queue and takes one request,
// which the benchmark puts back. cold_ramp's queue peaks near 150.
//
// The adjacent case is the backlogged disk: eight streams' rings of
// four contiguous pages, deadlines a second apart, so every pick joins
// a whole ring past the band and transfer builds its scatter list for a
// device that does nothing. It must allocate nothing either.
func BenchmarkSchedulerPick(b *testing.B) {
	for _, depth := range []int{1, 32, 256} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			s := New(nil, Options{})
			base := time.Unix(4000, 0)
			c := make(chan *Request, 1)
			for i := 0; i < depth; i++ {
				s.pending = append(s.pending, &Request{
					Off:      int64(i*7919%depth) << 20,
					Buf:      make([]byte, 4096),
					Deadline: base.Add(time.Duration(i%2) * time.Second),
					C:        c,
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				group := s.pick()
				s.pending = append(s.pending, group...)
			}
		})
	}
	b.Run("adjacent", func(b *testing.B) {
		s := New(nullDev{}, Options{})
		base := time.Unix(4000, 0)
		c := make(chan *Request, maxRun)
		for run := 0; run < 8; run++ {
			for i := 0; i < maxRun; i++ {
				s.pending = append(s.pending, &Request{
					Off:      int64(run)<<20 + int64(i)*4096,
					Buf:      make([]byte, 4096),
					Deadline: base.Add(time.Duration(i) * time.Second),
					C:        c,
				})
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			group := s.pick()
			if len(group) != maxRun {
				b.Fatalf("picked a transfer of %d, want a ring of %d", len(group), maxRun)
			}
			s.transfer(group)
			for len(c) > 0 {
				s.pending = append(s.pending, <-c)
			}
		}
	})
}

// nullDev completes every read at once, vectored ones included.
type nullDev struct{ blockdev.BlockDevice }

func (nullDev) ReadAt([]byte, int64) error     { return nil }
func (nullDev) ReadAtv(int64, ...[]byte) error { return nil }
