package wire

import (
	"fmt"
	"strings"
	"time"

	"calliope/internal/core"
	"calliope/internal/obs"
	"calliope/internal/trace"
	"calliope/internal/units"
)

// ProtoVersion is the control-protocol revision this build speaks, and
// the only one the Coordinator admits. Both hellos carry it, so a
// mixed-version pairing fails at registration with an error naming both
// versions instead of limping along on silently zero-valued fields; a
// hello without the field (version 0, a build older than the field) is
// refused the same way.
//
//	1 — the unversioned protocol: flat Status scalars, no events
//	2 — obs snapshots: StatusV2, cache-report piggybacked deltas, the
//	    events RPC
//	3 — a stream group starts in one message: StartStream carries every
//	    member's spec, and its reply is one StartStreamOK per spec
const ProtoVersion = 3

// Message type names. Grouped by relationship.
const (
	// Client → Coordinator.
	TypeHello          = "hello"
	TypeListContent    = "list-content"
	TypeListTypes      = "list-types"
	TypeRegisterPort   = "register-port"
	TypeUnregisterPort = "unregister-port"
	TypePlay           = "play"
	TypeRecord         = "record"
	TypeDeleteContent  = "delete-content"
	TypeAddType        = "add-type"
	TypeStatusV2       = "status-v2"
	TypeEvents         = "events"

	// MSU → Coordinator.
	TypeMSUHello      = "msu-hello"
	TypeStreamEnded   = "stream-ended"
	TypeRecordingDone = "recording-done"
	TypeCacheReport   = "cache-report"

	// Coordinator → MSU.
	TypeStartStream = "start-stream"
	TypeStopStream  = "stop-stream"

	// Replication (internal/replicate): the Coordinator's placement
	// policy orders a destination MSU to pull content from a source MSU
	// over a dedicated transfer connection; the destination reports the
	// verified commit (a call — the answer is the Coordinator's journal
	// fsync) or the failure (a notification).
	TypeReplicate       = "replicate"        // Coordinator → dst MSU
	TypeReplicateAbort  = "replicate-abort"  // Coordinator → dst MSU
	TypeReplicateDone   = "replicate-done"   // dst MSU → Coordinator
	TypeReplicateFailed = "replicate-failed" // dst MSU → Coordinator

	// Coordinator → Client notifications on the session connection:
	// failure-recovery outcomes for a stream group whose MSU died.
	TypeStreamMigrated = "stream-migrated"
	TypeStreamLost     = "stream-lost"

	// MSU → Client (first message on the VCR control connection).
	TypeVCRHello = "vcr-hello"
	// Client → MSU on the VCR connection.
	TypeVCR = "vcr"
	// MSU → Client when a stream finishes on its own.
	TypeStreamEOF = "stream-eof"
)

// Hello opens a client session.
type Hello struct {
	User string `json:"user"`
	// ProtoVersion is the protocol revision the client speaks (the
	// package constant); the Coordinator refuses any other.
	ProtoVersion int `json:"protoVersion,omitempty"`
}

// Welcome answers Hello.
type Welcome struct {
	Session core.SessionID `json:"session"`
}

// ContentList answers TypeListContent.
type ContentList struct {
	Items []core.ContentInfo `json:"items"`
}

// TypeList answers TypeListTypes.
type TypeList struct {
	Types []core.ContentType `json:"types"`
}

// RegisterPort declares a display port (§2.1). Composite ports name
// previously registered component ports per component type.
type RegisterPort struct {
	Name       string            `json:"name"`
	Type       string            `json:"type"`
	Addr       string            `json:"addr,omitempty"`
	Control    string            `json:"control,omitempty"`
	Components map[string]string `json:"components,omitempty"`
}

// PortOK answers RegisterPort.
type PortOK struct {
	Port core.PortID `json:"port"`
}

// UnregisterPort drops a display port by name.
type UnregisterPort struct {
	Name string `json:"name"`
}

// Play asks the Coordinator to schedule playback of content to a port.
type Play struct {
	Content string `json:"content"`
	Port    string `json:"port"`
	// ControlAddr is where the client listens for the MSU's VCR
	// control connection.
	ControlAddr string `json:"controlAddr"`
	// Wait queues the request until resources free up instead of
	// failing (§2.2: "the Coordinator queues the request").
	Wait bool `json:"wait,omitempty"`
}

// PlayOK answers Play: one entry per stream-group member.
type PlayOK struct {
	Group   uint64         `json:"group"`
	Streams []StreamInfo   `json:"streams"`
	MSU     core.MSUID     `json:"msu"`
	Length  time.Duration  `json:"length"`
	Size    units.ByteSize `json:"size"`
}

// StreamInfo describes one started stream.
type StreamInfo struct {
	Stream  core.StreamID `json:"stream"`
	Content string        `json:"content"`
	Type    string        `json:"type"`
}

// Record asks the Coordinator to schedule a recording.
type Record struct {
	Content     string        `json:"content"`
	Type        string        `json:"type"`
	Port        string        `json:"port"` // display port naming the source addresses
	Estimate    time.Duration `json:"estimate"`
	ControlAddr string        `json:"controlAddr"`
	Wait        bool          `json:"wait,omitempty"`
}

// RecordOK answers Record. The client sends its media to DataAddr (and
// protocol control traffic to CtrlAddr if present).
type RecordOK struct {
	Group    uint64         `json:"group"`
	Streams  []RecordStream `json:"streams"`
	MSU      core.MSUID     `json:"msu"`
	Reserved units.ByteSize `json:"reserved"`
}

// RecordStream describes one recording sink.
type RecordStream struct {
	Stream   core.StreamID `json:"stream"`
	Content  string        `json:"content"`
	Type     string        `json:"type"`
	DataAddr string        `json:"dataAddr"`
	CtrlAddr string        `json:"ctrlAddr,omitempty"`
}

// DeleteContent removes an item (admin).
type DeleteContent struct {
	Content string `json:"content"`
}

// AddType installs a content type (admin; §2.1 "clients may not define
// new types without the help of a system administrator").
type AddType struct {
	Type core.ContentType `json:"type"`
}

// StatusV2 answers TypeStatusV2, the Coordinator's one status report
// (§2.2: it "keeps track of load by processor and disk"). Everything
// countable lives in one mergeable obs.Snapshot (gauges like
// sessions/active_streams, counters like
// requests_total/repl_planned_total, the MSU-shipped delivery metrics
// and lateness histograms); only the structured per-disk and per-NIC
// ledger detail keeps dedicated fields.
type StatusV2 struct {
	Version  int          `json:"version"` // ProtoVersion of the answering Coordinator
	Snapshot obs.Snapshot `json:"snapshot"`
	Disks    []DiskUsage  `json:"disks,omitempty"`
	Net      []NetUsage   `json:"net,omitempty"`
}

// Gauge and counter names of the Coordinator's own load figures in
// StatusV2.Snapshot.
const (
	GaugeMSUs          = "msus"
	GaugeMSUsAvailable = "msus_available"
	GaugeActiveStreams = "active_streams"
	GaugeQueuedPlays   = "queued_plays"
	GaugeContents      = "contents"
	GaugeSessions      = "sessions"
	GaugeLostRecs      = "lost_recordings" // in flight when the Coordinator last crashed
	GaugeReplActive    = "repl_active"
	CounterRequests    = "requests_total"
	CounterReplPlanned = "repl_planned_total"
	CounterReplDone    = "repl_completed_total"
	CounterReplAborted = "repl_aborted_total"
	CounterReplDropped = "repl_dropped_total"
	CounterReplBytes   = "repl_bytes_copied_total"
)

// Text renders the report the way `calliope-client status` prints it: a
// summary line, a repl line once the replication policy has done
// anything, then one line per NIC and per disk, with the disk's cache,
// scheduler and per-content coverage beneath it when it has any.
func (v StatusV2) Text() string {
	var b strings.Builder
	s := v.Snapshot
	fmt.Fprintf(&b, "MSUs: %d (%d available)  streams: %d  contents: %d  sessions: %d  requests: %d\n",
		s.Gauge(GaugeMSUs), s.Gauge(GaugeMSUsAvailable), s.Gauge(GaugeActiveStreams),
		s.Gauge(GaugeContents), s.Gauge(GaugeSessions), s.Counter(CounterRequests))
	active, planned, done := s.Gauge(GaugeReplActive), s.Counter(CounterReplPlanned), s.Counter(CounterReplDone)
	aborted, dropped := s.Counter(CounterReplAborted), s.Counter(CounterReplDropped)
	if active > 0 || planned > 0 || done > 0 || aborted > 0 || dropped > 0 {
		fmt.Fprintf(&b, "  repl active %d planned %d completed %d aborted %d dropped %d copied %dMB\n",
			active, planned, done, aborted, dropped, s.Counter(CounterReplBytes)>>20)
	}
	state := map[bool]string{true: "up", false: "DOWN"}
	for _, n := range v.Net {
		fmt.Fprintf(&b, "  %-14s %-5s net %s of %s\n", n.MSU, state[n.Alive], n.Used, n.Cap)
	}
	for _, d := range v.Disks {
		fmt.Fprintf(&b, "  %-14s %-5s bandwidth %s of %s   space %s of %s\n",
			d.Disk, state[d.Alive], d.BandwidthUsed, d.BandwidthCap, d.SpaceUsed, d.SpaceCap)
		if cs := d.Cache; cs.Lookups() > 0 || cs.Evictions > 0 {
			fmt.Fprintf(&b, "  %-14s       cache %s\n", "", cs)
		}
		if io := d.IO; io.Requests > 0 {
			fmt.Fprintf(&b, "  %-14s       io %s\n", "", io)
		}
		for _, cov := range d.Cached {
			fmt.Fprintf(&b, "  %-14s       cached %q %d/%d pages, %d players\n",
				"", cov.Name, cov.CachedPages, cov.TotalPages, cov.Players)
		}
	}
	return b.String()
}

// EventsRequest pages through the Coordinator's event timeline
// (TypeEvents): events with Seq > Since, optionally one stream only,
// at most Max (0 = all buffered). WaitMillis > 0 long-polls: if
// nothing is newer than Since, the Coordinator parks the request until
// an event arrives or the wait expires — the `events --follow` tail.
type EventsRequest struct {
	Since      uint64 `json:"since"`
	Stream     uint64 `json:"stream,omitempty"`
	Max        int    `json:"max,omitempty"`
	WaitMillis int    `json:"waitMillis,omitempty"`
}

// EventsReply answers TypeEvents. Next is the cursor for the next
// request's Since.
type EventsReply struct {
	Events []obs.Event `json:"events"`
	Next   uint64      `json:"next"`
}

// NetUsage is one MSU's network-bandwidth scheduling state: cached and
// uncached streams alike reserve NIC bandwidth, so this is the binding
// limit once the RAM cache absorbs the disk load.
type NetUsage struct {
	MSU   core.MSUID    `json:"msu"`
	Alive bool          `json:"alive"`
	Used  units.BitRate `json:"used"`
	Cap   units.BitRate `json:"cap"`
}

// DiskUsage is one disk's scheduling state: how much of its bandwidth
// and space the Coordinator has committed (§2.2: "the Coordinator ...
// keeps track of load by processor and disk").
type DiskUsage struct {
	Disk          core.DiskID    `json:"disk"`
	Alive         bool           `json:"alive"`
	BandwidthUsed units.BitRate  `json:"bandwidthUsed"`
	BandwidthCap  units.BitRate  `json:"bandwidthCap"`
	SpaceUsed     units.ByteSize `json:"spaceUsed"` // stored + reserved
	SpaceCap      units.ByteSize `json:"spaceCap"`
	// RAM interval-cache state from the disk's last cache report.
	Cache  trace.CacheStats  `json:"cache,omitzero"`
	Cached []ContentCoverage `json:"cached,omitempty"`
	// I/O-scheduler counters from the disk's last cache report.
	IO trace.IOSchedStats `json:"io,omitzero"`
}

// DiskInfo describes one MSU disk in MSUHello.
type DiskInfo struct {
	BlockSize   int            `json:"blockSize"`
	TotalBlocks int64          `json:"totalBlocks"`
	FreeBlocks  int64          `json:"freeBlocks"`
	Bandwidth   units.BitRate  `json:"bandwidth"` // deliverable rate budget
	Contents    []ContentDecl  `json:"contents"`
	Reserve     units.ByteSize `json:"-"`
}

// ContentDecl announces one stored content item during registration.
type ContentDecl struct {
	Name    string         `json:"name"`
	Type    string         `json:"type"`
	Length  time.Duration  `json:"length"`
	Size    units.ByteSize `json:"size"`
	HasFast bool           `json:"hasFast"`
}

// MSUHello registers an MSU with the Coordinator.
type MSUHello struct {
	ID    core.MSUID `json:"id"`
	Disks []DiskInfo `json:"disks"`
	// NetBandwidth is the MSU's network (NIC) delivery budget. Zero
	// lets the Coordinator default it to the sum of the disk budgets,
	// which keeps cold-content admission exactly as bandwidth-limited
	// as before RAM caching existed.
	NetBandwidth units.BitRate `json:"netBandwidth,omitempty"`
	// TransferAddr is where the MSU accepts MSU-to-MSU replication
	// transfer connections (internal/replicate). Empty means the MSU
	// cannot serve as a replication source.
	TransferAddr string `json:"transferAddr,omitempty"`
	// ProtoVersion is the protocol revision the MSU speaks (the
	// package constant); the Coordinator refuses any other.
	ProtoVersion int `json:"protoVersion,omitempty"`
}

// ContentCoverage is one content's RAM-cache footprint on an MSU disk:
// CachedPages of TotalPages resident, Players actively reading. The
// Coordinator treats warmly covered content as servable without a disk
// duty-cycle slot.
type ContentCoverage struct {
	Name        string `json:"name"`
	CachedPages int64  `json:"cachedPages"`
	TotalPages  int64  `json:"totalPages"`
	Players     int    `json:"players"`
}

// CacheReport advertises one disk's interval-cache state (MSU →
// Coordinator notification, sent on the MSU's report clock while the
// disk plays and once when its last play stream ends). The Coordinator
// re-evaluates its admission queue on every report.
type CacheReport struct {
	// Seq numbers the MSU's reports, all disks together, from 1 in the
	// order their cumulative figures were taken. The Coordinator drops one
	// that is not newer than the last it took, instead of reading its
	// smaller counters as a restart.
	Seq      uint64            `json:"seq"`
	Disk     int               `json:"disk"`
	Stats    trace.CacheStats  `json:"stats"`
	Coverage []ContentCoverage `json:"coverage,omitempty"`
	// IO carries the disk's I/O-scheduler counters (requests, rounds,
	// coalescing, seek distance, deadline lateness) alongside the cache
	// heat, so operator tooling sees the elevator's effect.
	IO trace.IOSchedStats `json:"io,omitzero"`
	// Obs piggybacks the MSU's cumulative metrics snapshot (packets
	// sent, lateness histogram, fetch/cache counters). The Coordinator
	// diffs it against the last snapshot it saw from this MSU and folds
	// the delta into the cluster registry, so totals survive lost
	// notifications and MSU restarts without a second reporting channel.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// MSUWelcome answers MSUHello.
type MSUWelcome struct{}

// StartStream tells an MSU to begin one stream group (play or record):
// its members in order, all of them or none. The reply is a list of
// StartStreamOK, one per spec, in the same order.
type StartStream struct {
	Specs []core.StreamSpec `json:"specs"`
}

// StartStreamOK is one member's part of StartStream's reply. For a
// recording it carries the UDP addresses the client must send to.
type StartStreamOK struct {
	DataAddr string `json:"dataAddr,omitempty"`
	CtrlAddr string `json:"ctrlAddr,omitempty"`
}

// StopStream tells an MSU to abort a stream.
type StopStream struct {
	Stream core.StreamID `json:"stream"`
}

// StreamEnded notifies the Coordinator a stream finished (§2.2: "the
// MSU informs the coordinator that the stream has been terminated").
type StreamEnded struct {
	Stream core.StreamID `json:"stream"`
	Cause  string        `json:"cause"`
}

// RecordingDone notifies the Coordinator a recording committed, with
// actual (not estimated) resource use.
type RecordingDone struct {
	Stream  core.StreamID  `json:"stream"`
	Content string         `json:"content"`
	Type    string         `json:"type"`
	Disk    int            `json:"disk"`
	Length  time.Duration  `json:"length"`
	Size    units.ByteSize `json:"size"`
}

// VCRHello is the MSU's first message on the control connection it
// opens to the client (§2.1).
type VCRHello struct {
	Group   uint64        `json:"group"`
	Streams []StreamInfo  `json:"streams"`
	Length  time.Duration `json:"length"`
}

// VCR carries one VCR command; all members of a stream group obey it.
type VCR struct {
	Op  string        `json:"op"` // one of the VCR ops below
	Pos time.Duration `json:"pos,omitempty"`
}

// The VCR ops (VCR.Op). Pos is a seek's target.
const (
	VCRPlay         = "play"
	VCRPause        = "pause"
	VCRSeek         = "seek"
	VCRFastForward  = "fast-forward"
	VCRFastBackward = "fast-backward"
	VCRQuit         = "quit"
)

// VCRAck answers VCR with the group's current position.
type VCRAck struct {
	Pos   time.Duration `json:"pos"`
	Speed string        `json:"speed"`
}

// StreamEOF tells the client playback reached the end of content.
type StreamEOF struct {
	Group uint64        `json:"group"`
	Pos   time.Duration `json:"pos"`
}

// StreamMigrated tells the client its stream group was re-dispatched
// onto another MSU after its original MSU failed (§2.2 fault
// tolerance). The new MSU opens a fresh VCR control connection for the
// same group; Streams names the group's new stream IDs, which no earlier
// start used. Playback restarts from the beginning of the content — the
// client re-seeks to its last delivered position.
type StreamMigrated struct {
	Group   uint64       `json:"group"`
	MSU     core.MSUID   `json:"msu"` // the new server
	Streams []StreamInfo `json:"streams"`
}

// StreamLost tells the client its stream group died with its MSU and
// could not be re-dispatched (no other MSU declares the content, or no
// bandwidth). The client's retry path is a fresh Play — with Wait set
// it lands in the paper's pending queue until resources return.
type StreamLost struct {
	Group  uint64 `json:"group"`
	Reason string `json:"reason"`
}

// Replicate orders a destination MSU to pull one content item from a
// source MSU's transfer address and store it on the named disk. The MSU
// acks immediately and runs the copy in the background at Rate —
// bandwidth the Coordinator has already debited from both ends'
// ledgers, so live admission and the copy never double-book a slot.
type Replicate struct {
	ID      uint64         `json:"id"` // Coordinator-assigned transfer id
	Content string         `json:"content"`
	Type    string         `json:"type"`
	Disk    int            `json:"disk"`   // destination disk index
	Source  string         `json:"source"` // source MSU transfer address
	Rate    units.BitRate  `json:"rate"`   // transfer pacing budget
	Size    units.ByteSize `json:"size"`
	Length  time.Duration  `json:"length"`
	HasFast bool           `json:"hasFast"`
}

// ReplicateAbort tears down an in-flight transfer (content deleted, a
// play preempted the bandwidth, or the source MSU died). The
// destination stops the copy and frees its partially written blocks.
type ReplicateAbort struct {
	ID uint64 `json:"id"`
}

// ReplicateDone reports a verified replica: the destination has
// committed the file and companions through msufs and re-read them
// against the source's checksums. Sent as a call — the replica becomes
// real only when the Coordinator journals the new location and acks. An
// error answer (content deleted mid-copy) makes the destination remove
// the copy again.
type ReplicateDone struct {
	ID      uint64         `json:"id"`
	Content string         `json:"content"`
	Type    string         `json:"type"`
	Disk    int            `json:"disk"`
	Size    units.ByteSize `json:"size"`
	Length  time.Duration  `json:"length"`
	HasFast bool           `json:"hasFast"`
	Bytes   int64          `json:"bytes"` // payload bytes written this transfer
}

// ReplicateFailed reports an abandoned transfer after the destination
// exhausted its resume attempts (or was told to abort). Partial blocks
// are already freed; the Coordinator releases the reservations and may
// re-plan.
type ReplicateFailed struct {
	ID      uint64 `json:"id"`
	Content string `json:"content"`
	Reason  string `json:"reason"`
	Bytes   int64  `json:"bytes"`
}
