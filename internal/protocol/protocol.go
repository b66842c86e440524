// Package protocol implements the MSU's protocol extension modules
// (§2.3.2).
//
// A "protocol" here is deliberately small — "essentially a header
// definition and a few control messages". An extension module does two
// jobs, matching the paper's two extension functions:
//
//  1. anything the protocol needs beyond moving data packets — e.g.
//     RTP uses a second port for control messages, which the module
//     interleaves into the recorded stream and de-interleaves on
//     playback (the stored-record framing in this package carries the
//     channel tag);
//  2. constructing the delivery schedule during recording — by default
//     a packet's delivery time is its arrival time, but a module may
//     derive it from a protocol timestamp instead, which "does not
//     include the effects of network-induced jitter".
//
// Modules are looked up by name in a fixed table (New); content types
// name the module that handles their packets.
package protocol

import (
	"errors"
	"fmt"
	"time"

	"calliope/internal/units"
)

// Package errors.
var (
	ErrUnknownProtocol = errors.New("protocol: unknown protocol")
	ErrBadPacket       = errors.New("protocol: malformed packet")
	ErrBadConfig       = errors.New("protocol: bad configuration")
)

// Channel says which socket a stored packet belongs to.
type Channel byte

// Channels. Data packets flow on the display port's data socket,
// control packets (e.g. RTCP) on its control socket.
const (
	Data    Channel = 0
	Control Channel = 1
)

func (c Channel) String() string {
	if c == Control {
		return "control"
	}
	return "data"
}

// Config parameterizes a per-stream extension instance.
type Config struct {
	// Rate is the nominal stream rate; the CBR module computes its
	// schedule from it.
	Rate units.BitRate
	// ClockRate overrides the protocol's media clock (Hz) when
	// deriving delivery times from timestamps. 0 selects the
	// protocol's default (RTP video 90 kHz, VAT audio 8 kHz).
	ClockRate int
	// UseArrivalTime forces arrival-time schedules even when the
	// protocol carries timestamps — the ablation DESIGN.md calls out.
	UseArrivalTime bool
}

// Extension is one per-stream protocol instance. Instances are used by
// a single recording goroutine and need not be safe for concurrent use.
type Extension interface {
	// Name reports the module's name, its key in New's table.
	Name() string
	// DeliveryTime derives the delivery time to store for a packet
	// that arrived at the given offset from the start of the session.
	// Implementations that cannot parse the packet fall back to the
	// arrival time and report the parse error; the caller may log it.
	DeliveryTime(payload []byte, arrival time.Duration) (time.Duration, error)
	// HasControlChannel reports whether the protocol uses a secondary
	// control socket whose traffic is interleaved with the data.
	HasControlChannel() bool
}

// modules are the protocols the paper's MSU supports: RTP, VAT audio,
// and the raw constant-rate module that covers "any protocol and/or
// encoding which can be handled by transmitting fixed sized packets at
// a constant rate".
var modules = map[string]func(Config) (Extension, error){
	"rtp": NewRTP,
	"vat": NewVAT,
	"cbr": NewCBR,
}

// New instantiates a per-stream extension of the module named.
func New(name string, cfg Config) (Extension, error) {
	f, ok := modules[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProtocol, name)
	}
	return f(cfg)
}

// Stored-record framing: each record written into the IB-tree is
// [1 channel byte][payload]. RTP's control traffic is interleaved with
// the data this way during recording and split back out on playback.

// PutStored frames a payload into dst, which holds exactly
// 1+len(payload) bytes: the channel tag, then the payload. A content
// writer frames straight into the page it is building this way.
func PutStored(dst []byte, ch Channel, payload []byte) {
	dst[0] = byte(ch)
	copy(dst[1:], payload)
}

// EncodeStored returns a payload framed with its channel tag in a fresh
// buffer.
func EncodeStored(ch Channel, payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	PutStored(out, ch, payload)
	return out
}

// DecodeStored splits a stored record into channel and payload. The
// payload aliases the record.
func DecodeStored(rec []byte) (Channel, []byte, error) {
	if len(rec) < 1 {
		return 0, nil, fmt.Errorf("%w: empty stored record", ErrBadPacket)
	}
	switch ch := Channel(rec[0]); ch {
	case Data, Control:
		return ch, rec[1:], nil
	default:
		return 0, nil, fmt.Errorf("%w: channel %d", ErrBadPacket, rec[0])
	}
}
