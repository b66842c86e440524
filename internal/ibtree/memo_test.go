package ibtree

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/await"
)

// countingFile counts the block reads that reach the file under a Tree.
type countingFile struct {
	*memFile
	reads atomic.Int64
}

func (f *countingFile) ReadBlock(i int64, p []byte) error {
	f.reads.Add(1)
	return f.memFile.ReadBlock(i, p)
}

// randomTree builds a tree whose shape the seed decides: small pages and
// three- or four-key internal pages, so a few hundred packets already
// stand three levels high, and delivery times that stall for runs longer
// than a page holds, so duplicate keys span page boundaries. It returns
// the file, the metadata and every packet's delivery time in order.
func randomTree(t *testing.T, rng *rand.Rand) (*countingFile, int, Meta, []time.Duration) {
	t.Helper()
	pageSize := 256 << rng.Intn(2)
	f := &countingFile{memFile: newMemFile(pageSize)}
	b, err := NewBuilder(f, pageSize, 3+rng.Intn(2))
	if err != nil {
		t.Fatal(err)
	}
	n := 600 + rng.Intn(900)
	times := make([]time.Duration, n)
	var tm time.Duration
	stall := 0
	for i := range times {
		switch {
		case stall > 0:
			stall--
		case rng.Intn(20) == 0:
			stall = 5 + rng.Intn(30) // a page holds 4 to 12 of these packets
		default:
			tm += time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		times[i] = tm
		payload := make([]byte, 16+rng.Intn(40))
		payload[0], payload[1] = byte(i), byte(i>>8)
		if err := b.Append(Packet{Time: tm, Payload: payload}); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if meta.RootLevel < 3 {
		t.Fatalf("tree of %d packets in %d pages is %d levels high, want ≥ 3", n, meta.Pages, meta.RootLevel)
	}
	return f, pageSize, meta, times
}

// wantFirst is the oracle: the index of the first packet PageCursorAt(tm)
// and SeekTime(tm) must yield, from the delivery times alone.
func wantFirst(times []time.Duration, tm time.Duration) int {
	if tm < 0 {
		tm = 0
	}
	if last := times[len(times)-1]; tm > last {
		tm = last
	}
	for i, ti := range times {
		if ti >= tm {
			return i
		}
	}
	return len(times) - 1
}

// first is the index (stamped in the payload) and delivery time of the
// first packet a scan yielded, -1 if it yielded none.
func first(pkts []Packet, err error) (int, time.Duration, error) {
	if err != nil || len(pkts) == 0 {
		return -1, 0, err
	}
	return pktIndex(&pkts[0]), pkts[0].Time, nil
}

// randomProbe draws a seek position: mostly inside the content, but also
// the edges the clamps exist for.
func randomProbe(rng *rand.Rand, length time.Duration) time.Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return -time.Duration(rng.Intn(1000)) * time.Millisecond
	case 2:
		return length
	case 3:
		return length + time.Duration(1+rng.Intn(1000))*time.Millisecond
	default:
		return time.Duration(rng.Int63n(int64(length) + 1))
	}
}

// TestPageCursorAtMemoProperty checks, over random three-level trees,
// that a seek through a cold memo, the same seek through the warm memo
// and the un-memoised SeekTime all land on the packet the delivery times
// say they should — and that the warm seek and a seek to 0 read nothing.
func TestPageCursorAtMemoProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, pageSize, meta, times := randomTree(t, rng)
		for probe := 0; probe < 40; probe++ {
			tm := randomProbe(rng, meta.Length)
			want := wantFirst(times, tm)
			// A fresh Tree per probe: its memo is cold.
			tr, err := Open(f, pageSize, meta)
			if err != nil {
				t.Fatal(err)
			}
			for _, memo := range []string{"cold", "warm"} {
				before := f.reads.Load()
				pc, err := tr.PageCursorAt(tm)
				if err != nil {
					t.Fatalf("seed %d: PageCursorAt(%v) %s: %v", seed, tm, memo, err)
				}
				reads := f.reads.Load() - before
				if memo == "warm" && reads != 0 {
					t.Fatalf("seed %d: PageCursorAt(%v) through a warm memo read %d blocks", seed, tm, reads)
				}
				if tm <= 0 && reads != 0 {
					t.Fatalf("seed %d: PageCursorAt(%v) read %d blocks, want no descent", seed, tm, reads)
				}
				got, gotTime, err := first(scan(pc, nil))
				if err != nil {
					t.Fatalf("seed %d: PageCursorAt(%v) %s: %v", seed, tm, memo, err)
				}
				if got != want || gotTime != times[want] {
					t.Fatalf("seed %d: PageCursorAt(%v) %s = packet %d at %v, want %d at %v", seed, tm, memo, got, gotTime, want, times[want])
				}
			}
			got, gotTime, err := first(scan(tr.SeekTime(tm)))
			if err != nil {
				t.Fatalf("seed %d: SeekTime(%v): %v", seed, tm, err)
			}
			if got != want || gotTime != times[want] {
				t.Fatalf("seed %d: SeekTime(%v) = packet %d at %v, want %d at %v", seed, tm, got, gotTime, want, times[want])
			}
		}
	}
}

// TestPageCursorAtSharedTree has 8 goroutines seek one Tree at once (run
// it under -race): every seek lands where the oracle says, and however
// the misses interleave no node is read twice.
func TestPageCursorAtSharedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f, pageSize, meta, times := randomTree(t, rng)
	tr, err := Open(f, pageSize, meta)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, seeks = 8, 200
	type landed struct {
		tm time.Duration
		pc *PageCursor
	}
	results := make([][]landed, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < seeks; i++ {
				tm := randomProbe(rng, meta.Length)
				pc, err := tr.PageCursorAt(tm)
				if err != nil {
					t.Errorf("PageCursorAt(%v): %v", tm, err)
					return
				}
				results[g] = append(results[g], landed{tm, pc})
			}
		}(g)
	}
	wg.Wait()
	// Only descents have read so far, and each memo entry is one node.
	if reads, nodes := f.reads.Load(), int64(len(tr.nodes)); reads != nodes {
		t.Errorf("%d seeks read %d blocks for %d distinct nodes", goroutines*seeks, reads, nodes)
	}
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, l := range results[g] {
				want := wantFirst(times, l.tm)
				got, gotTime, err := first(scan(l.pc, nil))
				if err != nil {
					t.Errorf("PageCursorAt(%v): %v", l.tm, err)
					return
				}
				if got != want || gotTime != times[want] {
					t.Errorf("PageCursorAt(%v) = packet %d at %v, want %d at %v", l.tm, got, gotTime, want, times[want])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoForgetsFailedRead checks a device error is returned, not
// memoised: the same seek succeeds once the device answers.
func TestMemoForgetsFailedRead(t *testing.T) {
	f := newMemFile(4096)
	meta := buildTree(t, f, 4096, 4, 1000, 10*time.Millisecond, 64)
	root := f.blocks[meta.Root.Page]
	delete(f.blocks, meta.Root.Page)
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.PageCursorAt(time.Second); err == nil {
		t.Fatal("seek through an unreadable root page succeeded")
	}
	f.blocks[meta.Root.Page] = root
	if _, err := tr.PageCursorAt(time.Second); err != nil {
		t.Fatalf("seek after the device recovered: %v", err)
	}
}

// TestPageCursorAtAllocatesLessThanAPage pins what the memo is for: a
// play from the start and a seek through a resident index allocate a
// cursor, not the 256 KB scratch page a descent off the device needs.
func TestPageCursorAtAllocatesLessThanAPage(t *testing.T) {
	f := newMemFile(4096)
	const n = 1000
	meta := buildTree(t, f, 4096, 4, n, 10*time.Millisecond, 64)
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	positions := map[string]func(i int) time.Duration{
		"zero": func(int) time.Duration { return 0 },
		"warm": func(i int) time.Duration { return time.Duration(1+i%(n-1)) * 10 * time.Millisecond },
	}
	for name, at := range positions {
		for i := 0; i < n; i++ { // fill the memo
			if _, err := tr.PageCursorAt(at(i)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if _, err := tr.PageCursorAt(at(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / n; perOp >= uint64(tr.PageSize()) {
			t.Errorf("%s: PageCursorAt allocates %d bytes a call, a page is %d", name, perOp, tr.PageSize())
		}
	}
}

// gatedFile holds every block read at its gate until the test closes the
// gate; reads counts the reads that arrived, let through or not.
type gatedFile struct {
	*memFile
	gate  chan struct{}
	reads atomic.Int64
}

func (f *gatedFile) ReadBlock(i int64, p []byte) error {
	f.reads.Add(1)
	<-f.gate
	return f.memFile.ReadBlock(i, p)
}

// memoWaiters counts the goroutines parked in memoised on another seek's
// read of a node: blocked on a channel, with memoised the frame on top.
func memoWaiters() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
			strings.HasPrefix(lines[1], "calliope/internal/ibtree.(*Tree).memoised(") {
			n++
		}
	}
	return n
}

// TestMemoColdNodeReadOnce has 8 goroutines seek one cold Tree to the
// same position at once (run it under -race). The first to miss reads
// the root, which the device holds; the other seven wait for that read
// on a channel, not in a lock (a goroutine waiting on a lock stops
// virtual time). When the read lands, the eight seeks have cost one
// device read between them, and each lands where the oracle says.
func TestMemoColdNodeReadOnce(t *testing.T) {
	f := &gatedFile{memFile: newMemFile(4096), gate: make(chan struct{})}
	const n = 200
	meta := buildTree(t, f.memFile, 4096, 64, n, 10*time.Millisecond, 64)
	if meta.RootLevel != 1 {
		t.Fatalf("root level %d: the seek must read exactly one node", meta.RootLevel)
	}
	tr, err := Open(f, 4096, meta)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	tm := 1230 * time.Millisecond
	cursors := make([]*PageCursor, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range cursors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cursors[g], errs[g] = tr.PageCursorAt(tm)
		}()
	}
	await.Until(t, "one seek reading the root and the rest waiting on it", func() bool {
		return f.reads.Load() == 1 && memoWaiters() == goroutines-1
	})
	close(f.gate)
	wg.Wait()
	if reads := f.reads.Load(); reads != 1 {
		t.Fatalf("%d seeks to one cold node read %d blocks, want 1", goroutines, reads)
	}
	want := int(tm / (10 * time.Millisecond))
	for g, pc := range cursors {
		got, _, err := first(scan(pc, errs[g]))
		if err != nil || got != want {
			t.Fatalf("seek %d landed on packet %d (%v), want %d", g, got, err, want)
		}
	}
}

// SeekTime positions a page cursor as PageCursorAt(tm) does, found the
// un-memoised way: it traverses the embedded internal pages "in the
// usual way" (§2.2.1), reading each off the file through one scratch
// page, even from the start. It shares nothing with the memo
// PageCursorAt descends through, which is what makes it the reference
// the memo is tested against.
func (t *Tree) SeekTime(tm time.Duration) (*PageCursor, error) {
	tm = t.clamp(tm)
	scratch := make([]byte, t.pageSize)
	ptr, err := t.descend(tm, func(p Ptr) (*node, error) { return t.readNode(p, scratch) })
	if err != nil {
		return nil, err
	}
	return &PageCursor{t: t, next: ptr.Page, cur: -1, skip: tm}, nil
}
