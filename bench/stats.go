package main

import (
	"math"
	"sort"
	"time"
)

// sample is a bag of timings in milliseconds (or any one unit).
type sample []float64

func (s *sample) add(v float64)                 { *s = append(*s, v) }
func (s *sample) addDur(d time.Duration)        { s.add(ms(d)) }
func (s sample) sorted() sample                 { c := append(sample(nil), s...); sort.Float64s(c); return c }
func ms(d time.Duration) float64                { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64                { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64                { return float64(d) }
func pct(part, whole float64) float64           { return ratio(100*part, whole) }
func mbps(bytes int64, d time.Duration) float64 { return ratio(float64(bytes)*8/1e6, d.Seconds()) }

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of an ascending sample, 0
// when the sample is empty.
func quantile(sorted sample, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond reports how many of n samples lie past the q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailRule names the percentiles a tail may be read at, highest first.
var tailRule = []struct {
	name string
	q    float64
}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}}

// tail reads a sample's tail at the highest of p99.9/p99/p90 that has
// at least ten samples beyond it. A sample too small for even p90 is
// still read at p90: that is the floor, and n beside it says how far to
// trust it.
func tail(sorted sample) (name string, v float64) {
	for _, t := range tailRule {
		if beyond(len(sorted), t.q) >= 10 {
			return t.name, quantile(sorted, t.q)
		}
	}
	return "p90", quantile(sorted, 0.90)
}

func median(s sample) float64 { return quantile(s.sorted(), 0.5) }

// histQuantile reads the q-quantile off a cumulative-free bucket
// histogram (bounds are upper edges in seconds, counts has one extra
// +Inf bucket), answering with the bucket's upper edge in ms.
func histQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if i < len(bounds) {
				return bounds[i] * 1e3
			}
			break
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1] * 1e3 // +Inf bucket: report the last finite edge
}
