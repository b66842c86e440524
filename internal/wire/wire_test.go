package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calliope/internal/obs"
)

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Envelope{Kind: KindRequest, ID: 42, Type: "play", Body: json.RawMessage(`{"content":"movie"}`)}
	if err := WriteMessage(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.ID != in.ID || out.Type != in.Type {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	var body struct {
		Content string `json:"content"`
	}
	if err := out.Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Content != "movie" {
		t.Fatalf("body = %+v", body)
	}
}

func TestReadMessageRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize frame: %v", err)
	}
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("{{{")
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("garbage body: %v", err)
	}
}

// rawFrame puts a length in front of a hand-written envelope.
func rawFrame(envelope string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(envelope))), envelope...)
}

// FuzzReadMessage feeds ReadMessage arbitrary bytes, the way a socket
// would: it must never panic, must refuse a length above MaxMessage on
// the strength of the header alone (nothing read past it, so nothing
// allocated for it), whatever it accepts json.Unmarshal must read as the
// same envelope, body bytes included, and it must re-encode through
// WriteMessage to a frame that decodes to the same envelope and encodes
// to the same bytes again.
func FuzzReadMessage(f *testing.F) {
	frame := func(kind Kind, msgType string, body any) []byte {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &Envelope{Kind: kind, ID: 7, Type: msgType, Body: raw}); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	hello := frame(KindRequest, TypeHello, Hello{User: "alice", ProtoVersion: ProtoVersion})
	status := frame(KindResponse, TypeStatusV2, StatusV2{
		Version: ProtoVersion,
		Snapshot: obs.Snapshot{
			Gauges:   map[string]int64{GaugeMSUs: 1, GaugeActiveStreams: 2},
			Counters: map[string]int64{CounterRequests: 40},
		},
		Disks: []DiskUsage{{Alive: true, Cached: []ContentCoverage{{Name: "<movie>", CachedPages: 3, TotalPages: 4}}}},
		Net:   []NetUsage{{MSU: "msu0", Alive: true}},
	})
	f.Add(hello)
	f.Add(status)
	f.Add(status[:len(status)/2])                                     // truncated mid-body
	f.Add(hello[:3])                                                  // truncated mid-header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, '{', '}'})                   // length above MaxMessage
	f.Add([]byte{0, 0, 0, 3, '{', '{', '{'})                          // not JSON
	f.Add(append([]byte{0, 0, 0, 22}, `{"kind":"err","err":1}`...))   // wrong field type
	f.Add(append([]byte{0, 0, 0, 24}, `{"type":"x","body":null}`...)) // null body
	f.Add(rawFrame(`{"kind":"err","id":3,"type":"p\u006cay","err":"bad \"x\" \u003c\ud800"}`))
	f.Add(rawFrame(`{"kind":"ntf","type":"x","body":[1, {"a" : "}\""}]}`)) // spaces inside the body
	f.Add(rawFrame(`{"kind":"res","id":1,"type":"x","body":-1.5E3}`))
	f.Add(rawFrame(`{"kind":"res","id":1,"type":"x","body":1 }`)) // space after the body
	f.Add(rawFrame(`{"kind":"res","id":07,"type":"x"}`))          // leading zero
	f.Add(rawFrame(`{"type":"x","kind":"res"}`))                  // fields out of order

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		e, err := ReadMessage(in)
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > MaxMessage {
			if !errors.Is(err, ErrTooLarge) || in.Len() != len(data)-4 {
				t.Fatalf("oversize header: err %v, %d of %d bytes consumed", err, len(data)-in.Len(), len(data))
			}
		}
		if err != nil {
			if e != nil {
				t.Fatalf("envelope %+v returned beside error %v", e, err)
			}
			return
		}
		var ref Envelope
		if err := json.Unmarshal(data[4:4+binary.BigEndian.Uint32(data)], &ref); err != nil {
			t.Fatalf("accepted frame %q is not an envelope to json.Unmarshal: %v", data, err)
		}
		if ref.Kind != e.Kind || ref.ID != e.ID || ref.Type != e.Type || ref.Err != e.Err || !bytes.Equal(ref.Body, e.Body) {
			t.Fatalf("frame %q read as %+v, json.Unmarshal reads %+v", data, e, ref)
		}
		var first bytes.Buffer
		if err := WriteMessage(&first, e); err != nil {
			if errors.Is(err, ErrTooLarge) {
				return // escaping grew an envelope already at the limit
			}
			t.Fatalf("accepted envelope %+v does not re-encode: %v", e, err)
		}
		frame1 := append([]byte(nil), first.Bytes()...)
		again, err := ReadMessage(&first)
		if err != nil {
			t.Fatalf("re-encoded frame %q does not decode: %v", frame1, err)
		}
		if again.Kind != e.Kind || again.ID != e.ID || again.Type != e.Type || again.Err != e.Err {
			t.Fatalf("envelope changed in transit: %+v became %+v", e, again)
		}
		var second bytes.Buffer
		if err := WriteMessage(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame1, second.Bytes()) {
			t.Fatalf("body changed in transit: %q became %q", frame1, second.Bytes())
		}
	})
}

// FuzzFrameEnvelope holds the hand-written framing to its reference:
// for any kind, ID, type and err string and a body json.Marshal
// produced, frame (what a Peer sends) and WriteMessage write
// exactly json.Marshal(Envelope) behind its length, and ReadMessage
// reads that frame back as json.Unmarshal does.
func FuzzFrameEnvelope(f *testing.F) {
	f.Add(string(KindRequest), uint64(7), TypePlay, "", "movie", uint8(2))
	f.Add(string(KindError), uint64(1)<<63, "play", "no \"such\" <title> & more\n\u2028é", "", uint8(0))
	f.Add(string(KindNotify), uint64(0), TypeCacheReport, "", "\xff\xfe", uint8(3))
	f.Add("", uint64(0), "", "\x00\x1f\x7f\\", "</script>", uint8(1))
	f.Add("<ntf", uint64(10), "a&b", "é", "\u2029", uint8(1))
	f.Fuzz(func(t *testing.T, kind string, id uint64, msgType, errMsg, text string, shape uint8) {
		e := Envelope{Kind: Kind(kind), ID: id, Type: msgType, Err: errMsg}
		var body any
		switch shape % 4 {
		case 1:
			body = text
		case 2:
			body = Hello{User: text, ProtoVersion: int(shape)}
		case 3:
			body = map[string]any{text: []any{id, text, nil, true, -1.5}}
		}
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			e.Body = raw
		}
		ref, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		want := rawFrame(string(ref))
		got, err := frame(&e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("framed %+v as\n%q, json.Marshal writes\n%q", e, got, want)
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &e); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("WriteMessage wrote %q (%v), want %q", buf.Bytes(), err, want)
		}
		back, err := ReadMessage(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("frame %q does not read back: %v", got, err)
		}
		var dec Envelope
		if err := json.Unmarshal(ref, &dec); err != nil {
			t.Fatal(err)
		}
		if back.Kind != dec.Kind || back.ID != dec.ID || back.Type != dec.Type || back.Err != dec.Err || !bytes.Equal(back.Body, dec.Body) {
			t.Fatalf("frame %q read back as %+v, json.Unmarshal reads %+v", got, back, dec)
		}
	})
}

// TestFramesAreJSONMarshal sends a request, a response, an error whose
// message needs escaping and a notification through a Peer, and reads
// each frame off the other end of the pipe: every one is the length and
// then json.Marshal of the same envelope.
func TestFramesAreJSONMarshal(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	const failure = `no "such" <title> & more` + "\n\té\u2028\xff"
	peer := NewPeer(a, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == "fail" {
			return nil, errors.New(failure)
		}
		return Welcome{Session: 9}, nil
	}, nil)
	defer peer.Close()

	marshal := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	check := func(what string, want Envelope) {
		t.Helper()
		got := make([]byte, 4)
		if _, err := io.ReadFull(b, got); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got = append(got, make([]byte, binary.BigEndian.Uint32(got))...)
		if _, err := io.ReadFull(b, got[4:]); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if ref := rawFrame(string(marshal(&want))); !bytes.Equal(got, ref) {
			t.Fatalf("%s: frame\n%q, json.Marshal writes\n%q", what, got, ref)
		}
	}
	play := Play{Content: "<movie> & \"more\"", Port: "p0", ControlAddr: "127.0.0.1:1"}
	called := make(chan error, 1)
	go func() { called <- peer.Call(TypePlay, play, nil) }()
	check("request", Envelope{Kind: KindRequest, ID: 1, Type: TypePlay, Body: marshal(play)})
	if err := WriteMessage(b, &Envelope{Kind: KindResponse, ID: 1, Type: TypePlay, Body: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if err := <-called; err != nil {
		t.Fatal(err)
	}

	if err := WriteMessage(b, &Envelope{Kind: KindRequest, ID: 40, Type: "ok"}); err != nil {
		t.Fatal(err)
	}
	check("response", Envelope{Kind: KindResponse, ID: 40, Type: "ok", Body: marshal(Welcome{Session: 9})})
	if err := WriteMessage(b, &Envelope{Kind: KindRequest, ID: 41, Type: "fail"}); err != nil {
		t.Fatal(err)
	}
	check("error", Envelope{Kind: KindError, ID: 41, Type: "fail", Err: failure})

	end := StreamEnded{Stream: 7, Cause: "quit <eof>"}
	go func() { called <- peer.Notify(TypeStreamEnded, end) }()
	check("notification", Envelope{Kind: KindNotify, Type: TypeStreamEnded, Body: marshal(end)})
	if err := <-called; err != nil {
		t.Fatal(err)
	}
}

// peerPair builds two connected peers over a real TCP loopback socket.
func peerPair(t testing.TB, serverHandler Handler) (client, server *Peer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Peer, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- NewPeer(c, serverHandler, nil)
	}()
	cc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client = NewPeer(cc, nil, nil)
	server = <-done
	if server == nil {
		t.Fatal("accept failed")
	}
	l.Close()
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestPeerCall(t *testing.T) {
	client, _ := peerPair(t, func(msgType string, body json.RawMessage) (any, error) {
		if msgType != "echo" {
			return nil, fmt.Errorf("unknown type %q", msgType)
		}
		var v map[string]string
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		v["reply"] = "yes"
		return v, nil
	})
	var resp map[string]string
	if err := client.Call("echo", map[string]string{"q": "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp["q"] != "hi" || resp["reply"] != "yes" {
		t.Fatalf("resp = %v", resp)
	}
}

// TestReplyThenRunsAfterTheResponse has the handler close its own
// connection in Then: the caller still gets the answer every time,
// because Then waits for the response to be written.
func TestReplyThenRunsAfterTheResponse(t *testing.T) {
	for i := 0; i < 200; i++ {
		var server *Peer
		ready := make(chan struct{})
		client, srv := peerPair(t, func(string, json.RawMessage) (any, error) {
			<-ready
			return Reply{Body: map[string]int{"n": i}, Then: func() { server.Close() }}, nil
		})
		server = srv
		close(ready)
		var resp map[string]int
		if err := client.Call("quit", struct{}{}, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp["n"] != i {
			t.Fatalf("call %d answered %v", i, resp)
		}
	}
}

func TestPeerRemoteError(t *testing.T) {
	client, _ := peerPair(t, func(msgType string, body json.RawMessage) (any, error) {
		return nil, errors.New("calliope: no such content")
	})
	err := client.Call("play", struct{}{}, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	if !strings.Contains(err.Error(), "no such content") {
		t.Fatalf("error text lost: %v", err)
	}
}

func TestPeerConcurrentCalls(t *testing.T) {
	client, _ := peerPair(t, func(msgType string, body json.RawMessage) (any, error) {
		var v struct {
			N int `json:"n"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, err
		}
		if v.N%3 == 0 {
			time.Sleep(2 * time.Millisecond) // scramble response order
		}
		return map[string]int{"n": v.N * 2}, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			var resp map[string]int
			if err := client.Call("double", map[string]int{"n": n}, &resp); err != nil {
				errs <- err
				return
			}
			if resp["n"] != n*2 {
				errs <- fmt.Errorf("n=%d got %d", n, resp["n"])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPeerNotify(t *testing.T) {
	got := make(chan string, 1)
	client, _ := peerPair(t, func(msgType string, body json.RawMessage) (any, error) {
		got <- msgType
		return nil, nil
	})
	if err := client.Notify("stream-ended", StreamEnded{Stream: 7, Cause: "quit"}); err != nil {
		t.Fatal(err)
	}
	select {
	case mt := <-got:
		if mt != "stream-ended" {
			t.Fatalf("type = %q", mt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification never arrived")
	}
}

func TestPeerDownDetection(t *testing.T) {
	// The Coordinator's failure detector: closing one end fires onDown
	// on the other and fails pending calls.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	cc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var downCount atomic.Int32
	down := make(chan struct{})
	server := NewPeer(<-accepted, nil, func(error) {
		downCount.Add(1)
		close(down)
	})
	defer server.Close()
	client := NewPeer(cc, nil, nil)
	client.Close()
	select {
	case <-down:
	case <-time.After(2 * time.Second):
		t.Fatal("onDown never fired")
	}
	if downCount.Load() != 1 {
		t.Fatalf("onDown fired %d times", downCount.Load())
	}
	// Calls on the dead peer fail fast.
	if err := server.Call("x", struct{}{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on dead peer: %v", err)
	}
}

func TestCallAfterClose(t *testing.T) {
	client, _ := peerPair(t, nil)
	client.Close()
	if err := client.Call("x", struct{}{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestNoHandlerRejectsRequests(t *testing.T) {
	client, _ := peerPair(t, nil)
	err := client.Call("anything", struct{}{}, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want remote error, got %v", err)
	}
}

func TestMessagePayloadsSurviveJSON(t *testing.T) {
	// Spot-check that representative payloads round-trip through the
	// envelope layer without losing fields.
	spec := StartStream{}
	spec.Spec.Stream = 9
	spec.Spec.Content = "movie"
	spec.Spec.Rate = 1_500_000
	spec.Spec.Record = true
	spec.Spec.Estimate = time.Hour
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got StartStream
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Spec != spec.Spec {
		t.Fatalf("StartStream mutated: %+v vs %+v", got.Spec, spec.Spec)
	}
}

func TestCallTimeout(t *testing.T) {
	block := make(chan struct{})
	client, _ := peerPair(t, func(msgType string, body json.RawMessage) (any, error) {
		if msgType == "slow" {
			<-block
		}
		return map[string]bool{"ok": true}, nil
	})
	defer close(block)
	start := time.Now()
	err := client.CallTimeout("slow", struct{}{}, nil, 100*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if waited := time.Since(start); waited < 80*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("timed out after %v", waited)
	}
	// The connection survives: a fast call still works, and the late
	// response to the abandoned call is discarded silently.
	var resp map[string]bool
	if err := client.CallTimeout("fast", struct{}{}, &resp, 2*time.Second); err != nil {
		t.Fatalf("connection unusable after timeout: %v", err)
	}
	if !resp["ok"] {
		t.Fatalf("resp = %v", resp)
	}
}

// pingPair is BenchmarkCall's and TestCallAllocations' loopback pair: a
// server that answers every request with a one-field object.
func pingPair(tb testing.TB) *Peer {
	client, _ := peerPair(tb, func(string, json.RawMessage) (any, error) {
		return map[string]bool{"ok": true}, nil
	})
	return client
}

func BenchmarkCall(b *testing.B) {
	client := pingPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Call("ping", map[string]int{"n": i}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// callAllocs is what one loopback Call costs in allocations, both peers'
// counted, as BenchmarkCall's allocs/op reports it.
const callAllocs = 27

// TestCallAllocations pins callAllocs: a frame is built in one buffer
// and read with one pass over its fields.
func TestCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations would be counted")
	}
	client := pingPair(t)
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		if err := client.Call("ping", map[string]int{"n": n}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > callAllocs {
		t.Fatalf("a loopback Call makes %.0f allocations, want at most %d", allocs, callAllocs)
	}
}

func TestCloseFromOnDown(t *testing.T) {
	// Regression: onDown runs on the read-loop goroutine, and session
	// teardown calls Close from inside it (msu group.quit closes its
	// VCR peer when the control connection dies). Close must not wait
	// on the read loop from the read loop: that self-join used to hang
	// the goroutine on wg.Wait forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	cc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var server *Peer
	done := make(chan struct{})
	server = NewPeerStopped(<-accepted, nil, func(error) {
		server.Close() //nolint:errcheck // teardown of an already-dead conn
		close(done)
	})
	server.Start()
	client := NewPeer(cc, nil, nil)
	client.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("onDown calling Close deadlocked the read loop")
	}
}
