package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func ramp(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
		v    float64
	}{
		{50, "p90", 45},     // too small even for p90: p90 is the floor
		{99, "p90", 90},     // 9 beyond p90: still the floor
		{100, "p90", 90},    // 10 beyond p90
		{999, "p90", 900},   // 9 beyond p99
		{1000, "p99", 990},  // 10 beyond p99
		{9999, "p99", 9900}, // 9 beyond p99.9
		{10000, "p99.9", 9990},
	} {
		name, v := tail(ramp(c.n))
		if name != c.name || v != c.v {
			t.Errorf("tail of %d samples = %s %.0f, want %s %.0f", c.n, name, v, c.name, c.v)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := ramp(10)
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.9: 9, 0.91: 10, 1: 10} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%.2f) = %.0f, want %.0f", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.005, 0.05}
	counts := []int64{90, 9, 1, 0} // +Inf bucket empty
	if got := histQuantile(bounds, counts, 0.5); got != 1 {
		t.Errorf("p50 = %.1f ms, want the 1 ms bucket", got)
	}
	if got := histQuantile(bounds, counts, 0.99); got != 5 {
		t.Errorf("p99 = %.1f ms, want the 5 ms bucket", got)
	}
	if got := histQuantile(bounds, []int64{0, 0, 0, 3}, 0.5); got != 50 {
		t.Errorf("overflow bucket reads %.1f ms, want the last finite edge", got)
	}
}

// frames encodes bodies the way wire.WriteMessage frames them.
func frames(bodies ...string) []byte {
	var buf bytes.Buffer
	for _, b := range bodies {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
		buf.Write(hdr[:])
		buf.WriteString(b)
	}
	return buf.Bytes()
}

func TestFrameScannerAcrossWrites(t *testing.T) {
	bodies := []string{`{"type":"play"}`, ``, `{"type":"cache-report","body":{}}`, `x`}
	stream := frames(bodies...)
	for chunk := 1; chunk <= len(stream); chunk++ {
		var got []string
		fs := frameScanner{keep: true, done: func(body []byte) { got = append(got, string(body)) }}
		for i := 0; i < len(stream); i += chunk {
			end := i + chunk
			if end > len(stream) {
				end = len(stream)
			}
			fs.feed(stream[i:end])
		}
		if len(got) != len(bodies) {
			t.Fatalf("chunk %d: %d frames, want %d", chunk, len(got), len(bodies))
		}
		for i := range bodies {
			if got[i] != bodies[i] {
				t.Fatalf("chunk %d: frame %d = %q, want %q", chunk, i, got[i], bodies[i])
			}
		}
	}
}

func TestReportLogKeepsTheHighestSnapshot(t *testing.T) {
	report := func(packets, requests int) []byte {
		return []byte(`{"kind":"ntf","type":"cache-report","body":{"disk":0,"stats":{"hits":1,"misses":1,"inserts":0,"evictions":0},` +
			`"io":{"requests":` + itoa(requests) + `},"obs":{"counters":{"delivery_packets_total":` + itoa(packets) + `}}}}`)
	}
	var l reportLog
	l.note(report(100, 10))
	l.note(report(300, 30)) // the later snapshot overtook ...
	l.note(report(200, 20)) // ... this one on the wire
	l.note([]byte(`{"kind":"ntf","type":"stream-ended","body":{}}`))
	last := l.last()
	if got := last.obs.Counter("delivery_packets_total"); got != 300 || last.io.Requests != 30 || last.n != 3 {
		t.Fatalf("last report: packets %d requests %d of %d reports; want 300, 30, 3", got, last.io.Requests, last.n)
	}
}

func itoa(n int) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			return string(b[i:])
		}
	}
}
