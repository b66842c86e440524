package protocol

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"calliope/internal/units"
)

// TestNewHasPaperProtocols: New builds each of the paper's three
// modules under its own name and knows no other.
func TestNewHasPaperProtocols(t *testing.T) {
	for _, name := range []string{"cbr", "rtp", "vat"} {
		ext, err := New(name, Config{Rate: units.Mbps})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if ext.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, ext.Name())
		}
	}
	if _, err := New("missing", Config{}); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("unknown protocol: %v", err)
	}
}

func TestStoredRecordRoundTrip(t *testing.T) {
	f := func(ctrl bool, payload []byte) bool {
		ch := Data
		if ctrl {
			ch = Control
		}
		rec := EncodeStored(ch, payload)
		gotCh, gotPayload, err := DecodeStored(rec)
		return err == nil && gotCh == ch && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeStoredRejections(t *testing.T) {
	if _, _, err := DecodeStored(nil); !errors.Is(err, ErrBadPacket) {
		t.Errorf("empty record: %v", err)
	}
	if _, _, err := DecodeStored([]byte{7, 1, 2}); !errors.Is(err, ErrBadPacket) {
		t.Errorf("bad channel: %v", err)
	}
}

func TestRTPCodecRoundTrip(t *testing.T) {
	f := func(pt byte, marker bool, seq uint16, ts, ssrc uint32, payload []byte) bool {
		h := RTPHeader{PayloadType: pt & 0x7F, Marker: marker, Seq: seq, Timestamp: ts, SSRC: ssrc}
		pkt := EncodeRTP(h, payload)
		got, gotPayload, err := ParseRTP(pkt)
		return err == nil && got == h && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRTPRejections(t *testing.T) {
	if _, _, err := ParseRTP(make([]byte, 5)); !errors.Is(err, ErrBadPacket) {
		t.Errorf("short packet: %v", err)
	}
	bad := EncodeRTP(RTPHeader{}, nil)
	bad[0] = 0 // version 0
	if _, _, err := ParseRTP(bad); !errors.Is(err, ErrBadPacket) {
		t.Errorf("bad version: %v", err)
	}
}

func TestRTPDeliveryTimeFromTimestamp(t *testing.T) {
	ext, err := NewRTP(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.HasControlChannel() {
		t.Error("RTP should use a control channel")
	}
	// 90 kHz clock: 3000 ticks = 33.3ms per frame.
	mk := func(ts uint32) []byte { return EncodeRTP(RTPHeader{Timestamp: ts}, []byte("v")) }
	// Arrival times carry network jitter; delivery times must not.
	d0, err := ext.DeliveryTime(mk(1000), 5*time.Millisecond)
	if err != nil || d0 != 0 {
		t.Fatalf("first packet: %v, %v", d0, err)
	}
	d1, err := ext.DeliveryTime(mk(1000+3000), 48*time.Millisecond) // jittered arrival
	if err != nil {
		t.Fatal(err)
	}
	want := time.Second * 3000 / 90000
	if d1 != want {
		t.Fatalf("second packet: %v, want %v", d1, want)
	}
}

func TestRTPTimestampWraparound(t *testing.T) {
	ext, _ := NewRTP(Config{})
	mk := func(ts uint32) []byte { return EncodeRTP(RTPHeader{Timestamp: ts}, nil) }
	if _, err := ext.DeliveryTime(mk(0xFFFFF000), 0); err != nil {
		t.Fatal(err)
	}
	d, err := ext.DeliveryTime(mk(0x00000C00), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Delta = 0x1000+0xC00... unsigned wrap: 0xC00 - 0xFFFFF000 = 0x1C00 ticks.
	want := time.Second * 0x1C00 / 90000
	if d != want {
		t.Fatalf("wrapped delta = %v, want %v", d, want)
	}
}

func TestRTPFallsBackToArrivalOnGarbage(t *testing.T) {
	ext, _ := NewRTP(Config{})
	d, err := ext.DeliveryTime([]byte{1, 2}, 123*time.Millisecond)
	if err == nil {
		t.Fatal("garbage packet parsed")
	}
	if d != 123*time.Millisecond {
		t.Fatalf("fallback = %v, want arrival", d)
	}
}

func TestRTPUseArrivalOverride(t *testing.T) {
	ext, _ := NewRTP(Config{UseArrivalTime: true})
	pkt := EncodeRTP(RTPHeader{Timestamp: 99999}, nil)
	d, err := ext.DeliveryTime(pkt, 77*time.Millisecond)
	if err != nil || d != 77*time.Millisecond {
		t.Fatalf("arrival override: %v, %v", d, err)
	}
}

func TestVATCodecRoundTrip(t *testing.T) {
	f := func(flags, ts uint32, payload []byte) bool {
		pkt := EncodeVAT(VATHeader{Flags: flags, Timestamp: ts}, payload)
		h, gotPayload, err := ParseVAT(pkt)
		return err == nil && h.Flags == flags && h.Timestamp == ts && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVATDeliveryTime(t *testing.T) {
	ext, err := NewVAT(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ext.HasControlChannel() {
		t.Error("VAT should not use a control channel")
	}
	mk := func(ts uint32) []byte { return EncodeVAT(VATHeader{Timestamp: ts}, []byte("a")) }
	if d, err := ext.DeliveryTime(mk(800), 0); err != nil || d != 0 {
		t.Fatalf("first: %v %v", d, err)
	}
	// 8 kHz clock: 160 ticks = 20 ms (a typical audio frame).
	d, err := ext.DeliveryTime(mk(800+160), 99*time.Millisecond)
	if err != nil || d != 20*time.Millisecond {
		t.Fatalf("second: %v %v, want 20ms", d, err)
	}
}

func TestCBRSchedulePositional(t *testing.T) {
	ext, err := NewCBR(Config{Rate: 1500 * units.Kbps})
	if err != nil {
		t.Fatal(err)
	}
	if ext.HasControlChannel() {
		t.Error("CBR should not use a control channel")
	}
	pkt := make([]byte, 4096)
	var prev time.Duration = -1
	for i := 0; i < 100; i++ {
		// Arrival times are deliberately chaotic; the schedule must be
		// perfectly smooth anyway.
		d, err := ext.DeliveryTime(pkt, time.Duration(i%7)*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prev {
			t.Fatalf("packet %d: schedule not strictly increasing (%v after %v)", i, d, prev)
		}
		prev = d
	}
	// 100 packets × 4096 bytes at 1.5 Mbit/s: the 100th is due at
	// 99*4096*8/1.5e6 s ≈ 2.162 s.
	want := time.Duration(float64(99*4096*8) / 1.5e6 * float64(time.Second))
	if diff := prev - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("last delivery %v, want ~%v", prev, want)
	}
}

func TestCBRRequiresRate(t *testing.T) {
	if _, err := NewCBR(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("rateless cbr: %v", err)
	}
}

func TestNegativeClockRates(t *testing.T) {
	if _, err := NewRTP(Config{ClockRate: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("rtp negative clock: %v", err)
	}
	if _, err := NewVAT(Config{ClockRate: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("vat negative clock: %v", err)
	}
}

func TestChannelString(t *testing.T) {
	if Data.String() != "data" || Control.String() != "control" {
		t.Error("channel strings")
	}
}

// TestCodecsNeverPanicOnGarbage: every wire parser must reject or
// tolerate arbitrary bytes without panicking — these parse datagrams
// straight off a UDP socket.
func TestCodecsNeverPanicOnGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", raw, r)
			}
		}()
		ParseRTP(raw)     //nolint:errcheck
		ParseVAT(raw)     //nolint:errcheck
		DecodeStored(raw) //nolint:errcheck
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestExtensionsNeverPanicOnGarbage: delivery-time derivation over
// arbitrary payloads stays contained (falls back to arrival time).
func TestExtensionsNeverPanicOnGarbage(t *testing.T) {
	rtp, _ := NewRTP(Config{})
	vat, _ := NewVAT(Config{})
	cbr, _ := NewCBR(Config{Rate: units.Mbps})
	f := func(raw []byte, arrivalMs uint16) bool {
		arrival := time.Duration(arrivalMs) * time.Millisecond
		for _, ext := range []Extension{rtp, vat, cbr} {
			d, _ := ext.DeliveryTime(raw, arrival)
			if d < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
