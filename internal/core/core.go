// Package core holds the domain model shared by every Calliope
// component: content types (atomic and composite), content metadata,
// stream and session identifiers, and the errors the control plane
// reports. It has no I/O of its own.
package core

import (
	"errors"
	"fmt"
	"time"

	"calliope/internal/units"
)

// Common control-plane errors. The wire layer maps these to and from
// message status codes so both ends can test with errors.Is.
var (
	ErrNoSuchContent    = errors.New("calliope: no such content")
	ErrNoSuchType       = errors.New("calliope: no such content type")
	ErrNoSuchPort       = errors.New("calliope: no such display port")
	ErrNoSuchSession    = errors.New("calliope: no such session")
	ErrNoSuchStream     = errors.New("calliope: no such stream")
	ErrTypeMismatch     = errors.New("calliope: content type does not match display port type")
	ErrNoResources      = errors.New("calliope: no MSU with sufficient resources")
	ErrDuplicateName    = errors.New("calliope: name already in use")
	ErrPermission       = errors.New("calliope: permission denied")
	ErrMSUUnavailable   = errors.New("calliope: MSU unavailable")
	ErrBadRequest       = errors.New("calliope: malformed request")
	ErrContentInUse     = errors.New("calliope: content is in use")
	ErrNoFastFile       = errors.New("calliope: no fast-forward/backward file loaded")
	ErrSessionClosed    = errors.New("calliope: session closed")
	ErrStreamTerminated = errors.New("calliope: stream terminated")
)

// SessionID identifies a client-Coordinator session. All display ports
// registered under a session die with it.
type SessionID uint64

// StreamID identifies one active play or record stream on an MSU.
type StreamID uint64

// MSUID identifies a Multimedia Storage Unit in the Coordinator's
// database.
type MSUID string

// DiskID identifies one disk within an MSU.
type DiskID struct {
	MSU MSUID
	N   int // disk index within the MSU
}

func (d DiskID) String() string { return fmt.Sprintf("%s/disk%d", d.MSU, d.N) }

// RateClass says whether a content type plays at a constant or variable
// bit rate. Constant-rate delivery schedules are computed; variable-rate
// ones are stored alongside the data (§2.2.1).
type RateClass int

const (
	ConstantRate RateClass = iota
	VariableRate
)

func (rc RateClass) String() string {
	if rc == ConstantRate {
		return "constant"
	}
	return "variable"
}

// ContentType describes how one kind of content is played and stored.
// Composite types (e.g. Seminar = RTP video + VAT audio) name their
// component types and have no rates of their own; the Coordinator
// expands them into stream groups.
type ContentType struct {
	Name  string
	Class RateClass

	// Bandwidth is the rate the Coordinator reserves on a disk for a
	// stream of this type. For variable-rate types this should sit near
	// the stream's peak rate (§2.2).
	Bandwidth units.BitRate

	// Storage is the rate at which recording consumes disk space. For
	// variable-rate types this sits near the average rate, below
	// Bandwidth.
	Storage units.BitRate

	// Protocol names the MSU protocol extension module that handles
	// packets of this type (e.g. "rtp", "vat", "cbr"). Empty for
	// composite types.
	Protocol string

	// Components lists the component type names of a composite type.
	// Empty for atomic types.
	Components []string
}

// Composite reports whether the type is composed of other types.
func (ct *ContentType) Composite() bool { return len(ct.Components) > 0 }

// Validate checks internal consistency of the type definition.
func (ct *ContentType) Validate() error {
	if ct.Name == "" {
		return fmt.Errorf("%w: content type has no name", ErrBadRequest)
	}
	if ct.Composite() {
		if ct.Protocol != "" {
			return fmt.Errorf("%w: composite type %q must not name a protocol", ErrBadRequest, ct.Name)
		}
		return nil
	}
	if ct.Bandwidth <= 0 {
		return fmt.Errorf("%w: type %q has no bandwidth rate", ErrBadRequest, ct.Name)
	}
	if ct.Storage <= 0 {
		return fmt.Errorf("%w: type %q has no storage rate", ErrBadRequest, ct.Name)
	}
	if ct.Class == ConstantRate && ct.Bandwidth != ct.Storage {
		return fmt.Errorf("%w: constant-rate type %q must consume bandwidth and space at the same rate", ErrBadRequest, ct.Name)
	}
	if ct.Class == VariableRate && ct.Storage > ct.Bandwidth {
		return fmt.Errorf("%w: variable-rate type %q has storage rate above bandwidth rate", ErrBadRequest, ct.Name)
	}
	if ct.Protocol == "" {
		return fmt.Errorf("%w: atomic type %q names no protocol", ErrBadRequest, ct.Name)
	}
	return nil
}

// Speed selects which version of an item a stream delivers. Fast
// versions are separate, offline-filtered files (§2.3.1).
type Speed int

const (
	Normal Speed = iota
	FastForward
	FastBackward
)

func (s Speed) String() string {
	switch s {
	case FastForward:
		return "fast-forward"
	case FastBackward:
		return "fast-backward"
	default:
		return "normal"
	}
}

// ContentInfo is one entry in the Coordinator's table of contents.
type ContentInfo struct {
	Name     string
	Type     string // content type name
	Length   time.Duration
	Size     units.ByteSize
	HasFast  bool // fast-forward/backward companion files loaded
	Children []string
	// Replicas lists every disk holding a copy, in MSU id order; a
	// composite item has none of its own (its Children hold them).
	// Filled on table-of-contents listings only; the catalog's durable
	// record keeps locations separately.
	Replicas []DiskID
}

// PortID identifies a registered display port within a session.
type PortID uint64

// DisplayPort associates a name, a content type, and a UDP destination.
// Composite ports reference previously-registered component ports
// (§2.1).
type DisplayPort struct {
	ID      PortID
	Session SessionID
	Name    string
	Type    string // content type name

	// Addr is the UDP destination ("host:port") for atomic ports.
	Addr string

	// Control is the UDP destination of the protocol's control channel,
	// if the protocol uses one (e.g. RTP's RTCP port). Optional.
	Control string

	// Components maps component type name to the component port name
	// for composite ports.
	Components map[string]string
}

// StreamSpec is everything an MSU needs to start one atomic stream, one
// member of a stream group. The Coordinator starts a group in one
// message that carries every member's spec.
type StreamSpec struct {
	Stream    StreamID
	Group     uint64 // stream-group id; members share VCR control
	Content   string
	Type      string
	Protocol  string
	Class     RateClass
	Rate      units.BitRate // bandwidth reservation (delivery rate for CBR)
	Disk      int           // disk index on the chosen MSU
	DestAddr  string        // client data UDP address
	CtrlAddr  string        // client protocol-control UDP address (optional)
	ClientTCP string        // where the MSU connects for VCR commands
	Record    bool
	Estimate  time.Duration  // recording length estimate (record only)
	Reserved  units.ByteSize // disk space reserved (record only)
}

// Validate checks the spec the way an MSU does before admitting it.
func (s *StreamSpec) Validate() error {
	switch {
	case s.Content == "":
		return fmt.Errorf("%w: stream spec has no content name", ErrBadRequest)
	case s.Protocol == "":
		return fmt.Errorf("%w: stream spec has no protocol", ErrBadRequest)
	case s.Rate <= 0:
		return fmt.Errorf("%w: stream spec has no rate", ErrBadRequest)
	case s.Disk < 0:
		return fmt.Errorf("%w: stream spec has negative disk index", ErrBadRequest)
	case s.DestAddr == "" && !s.Record:
		return fmt.Errorf("%w: play spec has no destination address", ErrBadRequest)
	case s.Record && s.Estimate <= 0:
		return fmt.Errorf("%w: record spec has no length estimate", ErrBadRequest)
	}
	return nil
}
