package iosched

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSchedulerPick prices one re-pick — the work the loop does
// between two transfers — at a given queue depth: half the queue is
// inside the deadline band, offsets are scattered and nothing is
// adjacent, so each pick scans the whole queue and takes one request,
// which the benchmark puts back. cold_ramp's queue peaks near 150.
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
}
