package replicate_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"calliope/internal/replicate"
)

// fuzzSink records what Receive hands one file's sink.
type fuzzSink struct {
	hdr    replicate.FileHeader
	blocks [][]byte // copies: Receive reuses its frame buffer
	err    string   // the first thing the sink saw that Receive promises it never will
	closed int
}

func (s *fuzzSink) WriteBlock(i int64, p []byte) error {
	switch {
	case s.closed > 0 && s.err == "":
		s.err = "a block after Close"
	case i != s.hdr.StartBlock+int64(len(s.blocks)) && s.err == "":
		s.err = "a block out of order"
	}
	s.blocks = append(s.blocks, append([]byte(nil), p...))
	return nil
}

func (s *fuzzSink) Close() error {
	s.closed++
	return nil
}

// checkedBlocks walks stream the way the protocol comment describes a
// frame, with no code shared with readFrame, and returns the payload of
// every block frame up to the first frame that is cut short, oversized or
// fails its CRC: the only bytes a sink may ever be handed, in this order.
func checkedBlocks(stream []byte) [][]byte {
	var blocks [][]byte
	for len(stream) >= 5 {
		n := int(binary.BigEndian.Uint32(stream[1:5]))
		if n > replicate.MaxFrame || len(stream) < 5+n+4 {
			break
		}
		if crc32.ChecksumIEEE(stream[:5+n]) != binary.BigEndian.Uint32(stream[5+n:]) {
			break
		}
		if stream[0] == replicate.FrameBlock && n >= 8 {
			blocks = append(blocks, stream[5+8:5+n])
		}
		stream = stream[5+n+4:]
	}
	return blocks
}

// receiveChecked runs Receive over stream with recording sinks and checks
// what holds whether or not it ends in an error: every block a sink got
// is, in order, a block frame of the stream that passed its CRC, no
// larger than a frame or than its file's block size, numbered upwards
// from the file's StartBlock; and a sink is closed at most once, only
// with all its blocks in. It returns the sinks in the order opened.
func receiveChecked(t *testing.T, stream []byte) ([]*fuzzSink, replicate.Summary, error) {
	t.Helper()
	var sinks []*fuzzSink
	sum, err := replicate.Receive(bytes.NewReader(stream), func(h replicate.FileHeader) (replicate.Sink, error) {
		s := &fuzzSink{hdr: h}
		sinks = append(sinks, s)
		return s, nil
	})
	good := checkedBlocks(stream)
	var got, files int64
	for _, s := range sinks {
		if s.err != "" {
			t.Fatalf("the sink of %q got %s", s.hdr.Name, s.err)
		}
		for _, b := range s.blocks {
			if len(b) > replicate.MaxFrame || len(b) > s.hdr.BlockSize {
				t.Fatalf("the sink of %q got a %d-byte block (block size %d, MaxFrame %d)", s.hdr.Name, len(b), s.hdr.BlockSize, replicate.MaxFrame)
			}
			if got >= int64(len(good)) || !bytes.Equal(b, good[got]) {
				t.Fatalf("block %d handed to a sink is not the stream's block frame %d that passed its CRC", got, got)
			}
			got++
		}
		if s.closed > 1 || (s.closed == 1 && s.hdr.StartBlock+int64(len(s.blocks)) != s.hdr.Blocks) {
			t.Fatalf("the sink of %q was closed %d times with blocks [%d, %d) of %d in", s.hdr.Name, s.closed, s.hdr.StartBlock, s.hdr.StartBlock+int64(len(s.blocks)), s.hdr.Blocks)
		}
		files += int64(s.closed)
	}
	if sum.Blocks != got || int64(sum.Files) != files {
		t.Fatalf("the summary counts %d blocks in %d files, the sinks %d in %d", sum.Blocks, sum.Files, got, files)
	}
	if err == nil && files != int64(len(sinks)) {
		t.Fatalf("Receive returned no error with %d of %d files closed", files, len(sinks))
	}
	return sinks, sum, err
}

// FuzzReceive feeds Receive arbitrary bytes. The seeds are what Serve
// writes — a two-file transfer, a resumed one, an empty file — each of
// which must be accepted whole, block for block; and a few of the ways a
// stream goes wrong.
func FuzzReceive(f *testing.F) {
	const bs = 64 // small seeds: the engine minimises what it finds byte by byte
	main, comp := pattern(3*bs+77, 1), pattern(bs/2, 9)
	files := []replicate.SourceFile{
		memFile("movie", main, bs, map[string]string{"content-type": "mpeg1"}),
		memFile("movie.ff", comp, bs, map[string]string{"fast-role": "companion"}),
		memFile("empty", nil, bs, nil),
	}
	for _, req := range []replicate.Request{
		{Content: "movie"},
		{Content: "movie", Resume: []replicate.FileOffset{{Name: "movie", NextBlock: 2}, {Name: "movie.ff", NextBlock: 1}}},
	} {
		var buf bytes.Buffer
		if err := replicate.Serve(&buf, files, req, replicate.ServeOptions{}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(rawFrame(replicate.FrameBlock, make([]byte, 16)))                                          // a block before any header
	f.Add(append(rawFrame(replicate.FrameFile, []byte(`{"name":"x","blocks":2,"blockSize":8}`)), 3)) // cut short inside the next frame
	f.Add(rawFrame(replicate.FrameDone, nil))

	f.Fuzz(func(t *testing.T, stream []byte) {
		receiveChecked(t, stream)
	})
}

// TestServeOutputReceivedWhole is the other half of FuzzReceive's claim,
// on its own seeds: what Serve writes, Receive accepts, and the sinks end
// up with the source's bytes.
func TestServeOutputReceivedWhole(t *testing.T) {
	const bs = 512
	srcs := map[string][]byte{"movie": pattern(3*bs+77, 1), "movie.ff": pattern(bs/2, 9), "empty": nil}
	var files []replicate.SourceFile
	for _, name := range []string{"movie", "movie.ff", "empty"} {
		files = append(files, memFile(name, srcs[name], bs, nil))
	}
	for _, req := range []replicate.Request{
		{Content: "movie"},
		{Content: "movie", Resume: []replicate.FileOffset{{Name: "movie", NextBlock: 2}}},
	} {
		var buf bytes.Buffer
		if err := replicate.Serve(&buf, files, req, replicate.ServeOptions{}); err != nil {
			t.Fatal(err)
		}
		sinks, _, err := receiveChecked(t, buf.Bytes())
		if err != nil || len(sinks) != len(files) {
			t.Fatalf("Receive took %d of %d files of what Serve wrote: %v", len(sinks), len(files), err)
		}
		for _, s := range sinks {
			want := srcs[s.hdr.Name][min(s.hdr.StartBlock*bs, int64(len(srcs[s.hdr.Name]))):]
			if got := bytes.Join(s.blocks, nil); !bytes.Equal(got, want) {
				t.Errorf("%q from block %d: the sink holds %d bytes, the source %d", s.hdr.Name, s.hdr.StartBlock, len(got), len(want))
			}
		}
	}
}
