// Package media generates and manipulates synthetic multimedia
// streams.
//
// The paper's experiments use MPEG-1 movies (constant 1.5 Mbit/s,
// inter-frame compression, an intra-coded frame every ~15) and nv-
// encoded MBone captures (variable rate, ~1 KB packets, each frame sent
// as a burst of back-to-back packets; the three test files averaged
// 635–877 kbit/s with 50 ms-window peaks of 2.0–5.4 Mbit/s). We do not
// have those files, so this package synthesizes streams with the same
// externally visible properties: rate, packet size, burst structure,
// and GOP structure. Content is opaque to the server, so nothing else
// matters to the experiments.
//
// Each packet carries a small header identifying its frame, frame type
// and position, which is what the offline fast-forward/backward filter
// (§2.3.1) consumes — the paper's filter likewise re-parsed the stored
// stream offline because parsing "is too expensive to do in real time".
package media

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"calliope/internal/units"
)

// FrameType classifies a video frame the way MPEG does.
type FrameType byte

// Frame types. I-frames are intra-coded and safe to display alone;
// P and B frames depend on neighbours (§2.3.1).
const (
	IFrame FrameType = 'I'
	PFrame FrameType = 'P'
	BFrame FrameType = 'B'
)

// Packet is one media packet with its delivery-time offset from the
// start of the stream.
type Packet struct {
	Time    time.Duration
	Payload []byte
}

// Header is the per-packet framing header at the front of every
// synthetic payload.
type Header struct {
	Frame uint32    // frame number within the stream
	Type  FrameType // I, P or B
	Index uint16    // packet index within the frame
	Count uint16    // packets in the frame
}

// HeaderLen is the encoded header size.
const HeaderLen = 16

const headerMagic = 0x534D5631 // "SMV1"

// ErrBadHeader reports a payload that does not start with a valid
// synthetic media header.
var ErrBadHeader = errors.New("media: bad packet header")

// EncodeHeader writes h into buf, which must hold HeaderLen bytes.
func EncodeHeader(h Header, buf []byte) {
	binary.BigEndian.PutUint32(buf[0:4], headerMagic)
	binary.BigEndian.PutUint32(buf[4:8], h.Frame)
	buf[8] = byte(h.Type)
	buf[9] = 0
	binary.BigEndian.PutUint16(buf[10:12], h.Index)
	binary.BigEndian.PutUint16(buf[12:14], h.Count)
	buf[14], buf[15] = 0, 0
}

// ParseHeader decodes the header at the front of a payload.
func ParseHeader(p []byte) (Header, error) {
	if len(p) < HeaderLen {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrBadHeader, len(p))
	}
	if binary.BigEndian.Uint32(p[0:4]) != headerMagic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrBadHeader)
	}
	h := Header{
		Frame: binary.BigEndian.Uint32(p[4:8]),
		Type:  FrameType(p[8]),
		Index: binary.BigEndian.Uint16(p[10:12]),
		Count: binary.BigEndian.Uint16(p[12:14]),
	}
	switch h.Type {
	case IFrame, PFrame, BFrame:
		return h, nil
	default:
		return Header{}, fmt.Errorf("%w: frame type %q", ErrBadHeader, p[8])
	}
}

// CBRConfig describes an MPEG-like constant-bit-rate stream.
type CBRConfig struct {
	Rate       units.BitRate // stream rate, e.g. 1.5 Mbit/s
	PacketSize int           // wire packet size, e.g. 4096 (4 KB FDDI packets)
	FPS        int           // frames per second, e.g. 30
	GOP        int           // I-frame every GOP frames, e.g. 15
	Duration   time.Duration // stream length
}

func (c *CBRConfig) validate() error {
	switch {
	case c.Rate <= 0:
		return errors.New("media: CBR config needs a positive rate")
	case c.PacketSize <= HeaderLen:
		return fmt.Errorf("media: packet size %d must exceed header length %d", c.PacketSize, HeaderLen)
	case c.FPS <= 0:
		return errors.New("media: CBR config needs positive FPS")
	case c.GOP <= 0:
		return errors.New("media: CBR config needs positive GOP")
	case c.Duration <= 0:
		return errors.New("media: CBR config needs positive duration")
	}
	return nil
}

// GenerateCBR produces a constant-rate stream: every frame is the same
// size, packets within a frame are evenly spaced, so the wire rate is
// constant at cfg.Rate. Frame types follow an MPEG-like GOP: I at the
// start of each GOP, then a P/B cadence.
func GenerateCBR(cfg CBRConfig) ([]Packet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	frameDur := time.Second / time.Duration(cfg.FPS)
	nframes := int(cfg.Duration / frameDur)
	if nframes == 0 {
		nframes = 1
	}
	bytesPerFrame := int(cfg.Rate.BytesPerSecond()) / cfg.FPS
	pktsPerFrame := (bytesPerFrame + cfg.PacketSize - 1) / cfg.PacketSize
	if pktsPerFrame == 0 {
		pktsPerFrame = 1
	}
	pkts := make([]Packet, 0, nframes*pktsPerFrame)
	for f := 0; f < nframes; f++ {
		ft := frameTypeFor(f, cfg.GOP)
		base := time.Duration(f) * frameDur
		remaining := bytesPerFrame
		for i := 0; i < pktsPerFrame; i++ {
			size := cfg.PacketSize
			if remaining < size {
				size = remaining
			}
			if size < HeaderLen {
				size = HeaderLen
			}
			payload := make([]byte, size)
			EncodeHeader(Header{Frame: uint32(f), Type: ft, Index: uint16(i), Count: uint16(pktsPerFrame)}, payload)
			// Evenly spaced within the frame: constant wire rate.
			t := base + frameDur*time.Duration(i)/time.Duration(pktsPerFrame)
			pkts = append(pkts, Packet{Time: t, Payload: payload})
			remaining -= size
		}
	}
	return pkts, nil
}

// frameTypeFor assigns an MPEG-like cadence: I at GOP boundaries, P
// every third frame, B otherwise.
func frameTypeFor(f, gop int) FrameType {
	switch {
	case f%gop == 0:
		return IFrame
	case f%3 == 0:
		return PFrame
	default:
		return BFrame
	}
}

// VBRConfig describes an nv-like variable-bit-rate stream.
type VBRConfig struct {
	TargetRate units.BitRate // long-run average rate, e.g. 650 kbit/s
	FPS        int           // frames per second, e.g. 15
	PacketSize int           // ~1 KB like nv
	Duration   time.Duration
	BurstRate  units.BitRate // wire rate of back-to-back packets in a burst
	Seed       int64         // deterministic generation
	// PeakFactor scales scene-change spikes relative to the average
	// frame size; 0 picks a default that yields the paper's 3–6x
	// 50 ms-window peaks.
	PeakFactor float64
}

func (c *VBRConfig) validate() error {
	switch {
	case c.TargetRate <= 0:
		return errors.New("media: VBR config needs a positive rate")
	case c.PacketSize <= HeaderLen:
		return fmt.Errorf("media: packet size %d must exceed header length %d", c.PacketSize, HeaderLen)
	case c.FPS <= 0:
		return errors.New("media: VBR config needs positive FPS")
	case c.Duration <= 0:
		return errors.New("media: VBR config needs positive duration")
	}
	return nil
}

// GenerateVBR produces a bursty variable-rate stream the way nv does:
// each frame is encoded then transmitted as fast as possible, so a
// frame is a burst of back-to-back packets at BurstRate; frame sizes
// follow a bounded random walk with occasional scene-change spikes.
func GenerateVBR(cfg VBRConfig) ([]Packet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.BurstRate <= 0 {
		// A mid-90s software encoder drains a frame at a few Mbit/s;
		// 5 Mbit/s keeps 50 ms-window peaks inside the paper's
		// 2.0–5.4 Mbit/s band.
		cfg.BurstRate = 5 * units.Mbps
	}
	if cfg.PeakFactor == 0 {
		cfg.PeakFactor = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	frameDur := time.Second / time.Duration(cfg.FPS)
	nframes := int(cfg.Duration / frameDur)
	if nframes == 0 {
		nframes = 1
	}
	avgFrameBytes := cfg.TargetRate.BytesPerSecond() / float64(cfg.FPS)
	// Random walk multiplier around 1.0 with spikes. To keep the long-
	// run average on target, track the running surplus and lean
	// against it.
	var pkts []Packet
	walk := 1.0
	surplus := 0.0 // bytes emitted above target so far
	pktGap := cfg.BurstRate.Duration(units.ByteSize(cfg.PacketSize))
	for f := 0; f < nframes; f++ {
		walk += rng.NormFloat64() * 0.15
		if walk < 0.3 {
			walk = 0.3
		}
		if walk > 2.0 {
			walk = 2.0
		}
		mult := walk
		if rng.Float64() < 0.02 { // scene change
			mult = cfg.PeakFactor * (0.8 + 0.4*rng.Float64())
		}
		// Lean against accumulated surplus to hold the average.
		correction := 1.0 - surplus/(avgFrameBytes*20)
		if correction < 0.2 {
			correction = 0.2
		}
		if correction > 1.8 {
			correction = 1.8
		}
		frameBytes := int(avgFrameBytes * mult * correction)
		if frameBytes < HeaderLen {
			frameBytes = HeaderLen
		}
		surplus += float64(frameBytes) - avgFrameBytes

		npkts := (frameBytes + cfg.PacketSize - 1) / cfg.PacketSize
		base := time.Duration(f) * frameDur
		remaining := frameBytes
		for i := 0; i < npkts; i++ {
			size := cfg.PacketSize
			if remaining < size {
				size = remaining
			}
			if size < HeaderLen {
				size = HeaderLen
			}
			payload := make([]byte, size)
			EncodeHeader(Header{Frame: uint32(f), Type: IFrame, Index: uint16(i), Count: uint16(npkts)}, payload)
			// Back-to-back at the burst wire rate.
			pkts = append(pkts, Packet{Time: base + time.Duration(i)*pktGap, Payload: payload})
			remaining -= size
		}
	}
	return pkts, nil
}

// AverageRate reports the long-run average rate of a stream.
func AverageRate(pkts []Packet) units.BitRate {
	if len(pkts) == 0 {
		return 0
	}
	var total units.ByteSize
	for _, p := range pkts {
		total += units.ByteSize(len(p.Payload))
	}
	span := pkts[len(pkts)-1].Time - pkts[0].Time
	if span <= 0 {
		return 0
	}
	return units.RateOf(total, span)
}

// PeakRate reports the maximum rate observed in any sliding window of
// the given width — the measurement behind the paper's "peak rates of
// the files ranged from 2.0 to 5.4 MBit/sec" over 50 ms windows.
func PeakRate(pkts []Packet, window time.Duration) units.BitRate { //nolint:testonly // ROADMAP item 6(c): the peak-rate admission edge
	if len(pkts) == 0 || window <= 0 {
		return 0
	}
	sorted := make([]Packet, len(pkts))
	copy(sorted, pkts)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	var best, cur units.ByteSize
	lo := 0
	for hi := range sorted {
		cur += units.ByteSize(len(sorted[hi].Payload))
		for sorted[hi].Time-sorted[lo].Time >= window {
			cur -= units.ByteSize(len(sorted[lo].Payload))
			lo++
		}
		if cur > best {
			best = cur
		}
	}
	return units.RateOf(best, window)
}

// VATAudioConfig describes a vat-style audio stream: fixed-size frames
// at a fixed cadence (the classic 8 kHz µ-law telephony encoding vat
// shipped with: 160 samples = 20 ms per packet).
type VATAudioConfig struct {
	FrameBytes int           // payload bytes per packet (default 160)
	Interval   time.Duration // packet cadence (default 20 ms)
	Duration   time.Duration // stream length
}

// GenerateVATAudio produces an audio stream whose packets carry vat
// headers with media timestamps, so the MSU's vat extension module can
// build jitter-free delivery schedules from them. The payload is a
// deterministic tone-like byte pattern.
func GenerateVATAudio(cfg VATAudioConfig) ([]Packet, error) {
	if cfg.FrameBytes <= 0 {
		cfg.FrameBytes = 160
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 20 * time.Millisecond
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("media: VAT audio needs a positive duration")
	}
	n := int(cfg.Duration / cfg.Interval)
	if n == 0 {
		n = 1
	}
	// 8 kHz clock ticks per packet.
	ticksPer := uint32(cfg.Interval.Seconds() * 8000)
	pkts := make([]Packet, 0, n)
	for i := 0; i < n; i++ {
		samples := make([]byte, cfg.FrameBytes)
		for j := range samples {
			samples[j] = byte((i + j) % 251)
		}
		payload := encodeVATPacket(uint32(i)*ticksPer, samples)
		pkts = append(pkts, Packet{Time: time.Duration(i) * cfg.Interval, Payload: payload})
	}
	return pkts, nil
}

// encodeVATPacket builds a vat wire packet without importing the
// protocol package (media sits below it): 4 bytes of flags, 4 bytes of
// big-endian timestamp, then samples — the layout protocol.ParseVAT
// reads.
func encodeVATPacket(ts uint32, samples []byte) []byte {
	out := make([]byte, 8+len(samples))
	binary.BigEndian.PutUint32(out[4:8], ts)
	copy(out[8:], samples)
	return out
}
