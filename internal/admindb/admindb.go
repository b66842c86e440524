// Package admindb is the Coordinator's administrative database (§2.2:
// content types, the table of contents with every replica location,
// in-flight recordings, the ID counters) — the only copy of it. The
// Coordinator reads the tables through DB's accessors and changes them
// through DB.Apply and nothing else.
//
// The paper's Calliope "does not recover from Coordinator failures";
// a DB opened on a state directory is the missing half of the
// fault-tolerance story. The design is a classic snapshot +
// append-only journal, with one rule tying memory to disk — journal,
// then apply:
//
//   - Apply frames every mutation as a length-prefixed, CRC-checked
//     record, appends the batch and fsyncs — the commit point — and
//     only then plays the records into the tables. A failed write
//     changes nothing in memory.
//   - Startup loads the last snapshot and replays the journal on top,
//     through the same apply function Apply runs: a restart is a
//     replay, so the restarted tables are the live ones by
//     construction. A crash-truncated or corrupted journal tail is
//     tolerated: replay stops at the first damaged record, keeps every
//     record before the damage, and truncates the file back to the
//     last good offset.
//   - When the journal grows past a threshold the database compacts:
//     the tables are written as a new snapshot (atomic tmp+rename) and
//     the journal is truncated. Journal records are idempotent — each
//     carries absolute values — so a crash between the snapshot rename
//     and the journal truncation merely replays already-applied records.
//
// NewMem is the same database with no journal behind it: the identical
// Apply, minus the encoding and the fsync.
//
// What is deliberately *not* stored: sessions, display ports, queued
// requests, and the live bandwidth/space ledgers. Sessions die with
// their TCP connections anyway (clients reconnect and replay their
// port registrations), and the ledgers are rebuilt from scratch as
// MSUs re-register.
//
// The package is wall-clock-free (walltime analyzer): the snapshot
// timestamp comes from the injected Options.Now.
package admindb

import (
	"maps"
	"slices"
	"sort"
	"time"

	"calliope/internal/core"
)

// Location is one replica of a content item: the MSU holding it and
// the disk it lives on.
type Location struct {
	MSU  core.MSUID `json:"msu"`
	Disk int        `json:"disk"`
}

// DiskID names the disk the replica lives on.
func (l Location) DiskID() core.DiskID { return core.DiskID{MSU: l.MSU, N: l.Disk} }

// ContentRecord is one table-of-contents entry. Locations are its
// replicas, in MSU id order and of equal standing: each is a place to
// play from and a re-dispatch candidate when an MSU fails (§2.2).
// Info.Children names a composite item's components; a record with
// children holds no locations, its components hold them.
//
// A record handed out by DB.Content is the database's own: read it
// while excluding Apply (the Coordinator's lock does), never write it.
type ContentRecord struct {
	Info      core.ContentInfo `json:"info"`
	Locations []Location       `json:"locations,omitempty"`
}

// Locate reports the disk a replica lives on at the given MSU.
func (r *ContentRecord) Locate(id core.MSUID) (core.DiskID, bool) {
	for _, l := range r.Locations {
		if l.MSU == id {
			return l.DiskID(), true
		}
	}
	return core.DiskID{}, false
}

// Holders lists the disks holding a replica, in MSU id order — the
// order placement, transfer sourcing and listings all try them in.
func (r *ContentRecord) Holders() []core.DiskID {
	out := make([]core.DiskID, 0, len(r.Locations))
	for _, l := range r.Locations {
		out = append(out, l.DiskID())
	}
	return out
}

// PendingRecording is a recording in flight: journaled when the
// Coordinator dispatches it, settled when every component commits (or
// the recording is lost with its MSU). A pending entry found at
// startup is a recording the crash interrupted — the restarted
// Coordinator reports it lost.
type PendingRecording struct {
	Group    uint64     `json:"group"`
	MSU      core.MSUID `json:"msu"`
	Contents []string   `json:"contents"`
	// Parent and Type name a composite recording's item and its type:
	// Contents are its components, in component order, and the last
	// one's commit publishes the parent.
	Parent string `json:"parent,omitempty"`
	Type   string `json:"type,omitempty"`
}

// Counters are the Coordinator's ID generators. Persisting them is
// what keeps a restarted Coordinator from re-issuing a stream, group,
// session, or port ID that is still live somewhere in the cluster.
type Counters struct {
	NextSession uint64 `json:"nextSession"`
	NextStream  uint64 `json:"nextStream"`
	NextGroup   uint64 `json:"nextGroup"`
	NextPort    uint64 `json:"nextPort"`
}

// State is the whole database frozen in deterministic order: the
// snapshot file's JSON shape, and what Load hands to tests.
type State struct {
	Types      []core.ContentType `json:"types,omitempty"`
	Contents   []ContentRecord    `json:"contents,omitempty"`
	Recordings []PendingRecording `json:"recordings,omitempty"`
	Counters   Counters           `json:"counters"`
	// SavedAt is the injected-clock time of the snapshot this state was
	// loaded from (zero for a journal-only or in-memory state).
	SavedAt time.Time `json:"savedAt,omitzero"`
}

// Mutation ops. Each is idempotent so a journal suffix can be
// replayed over a snapshot that already contains it.
const (
	opPutType         = "put-type"
	opPutContent      = "put-content"
	opDeleteContent   = "delete-content"
	opSetLocation     = "set-location"
	opDropLocation    = "drop-location"
	opSetCounters     = "set-counters"
	opPutRecording    = "put-recording"
	opDeleteRecording = "delete-recording"
)

// Mutation is one journal record. Build them with the constructor
// functions; the zero Mutation is invalid.
type Mutation struct {
	Op        string            `json:"op"`
	Type      *core.ContentType `json:"type,omitempty"`
	Content   *ContentRecord    `json:"content,omitempty"`
	Name      string            `json:"name,omitempty"`
	Location  *Location         `json:"location,omitempty"`
	MSU       core.MSUID        `json:"msuId,omitempty"`
	Counters  *Counters         `json:"counters,omitempty"`
	Recording *PendingRecording `json:"recording,omitempty"`
	Group     uint64            `json:"group,omitempty"`
}

// PutType installs or replaces a content type.
func PutType(t core.ContentType) Mutation {
	return Mutation{Op: opPutType, Type: &t}
}

// PutContent installs or replaces a table-of-contents entry.
func PutContent(rec ContentRecord) Mutation {
	return Mutation{Op: opPutContent, Content: &rec}
}

// DeleteContent removes a table-of-contents entry.
func DeleteContent(name string) Mutation {
	return Mutation{Op: opDeleteContent, Name: name}
}

// SetLocation records one replica of a content item.
func SetLocation(name string, loc Location) Mutation {
	return Mutation{Op: opSetLocation, Name: name, Location: &loc}
}

// DropLocation forgets an MSU's replica of a content item.
func DropLocation(name string, msu core.MSUID) Mutation {
	return Mutation{Op: opDropLocation, Name: name, MSU: msu}
}

// SetCounters persists the ID generators. Replay takes the
// element-wise maximum, so counters never move backwards.
func SetCounters(cs Counters) Mutation {
	return Mutation{Op: opSetCounters, Counters: &cs}
}

// PutRecording journals an in-flight recording.
func PutRecording(r PendingRecording) Mutation {
	return Mutation{Op: opPutRecording, Recording: &r}
}

// DeleteRecording settles an in-flight recording (committed or lost).
func DeleteRecording(group uint64) Mutation {
	return Mutation{Op: opDeleteRecording, Group: group}
}

// tables is the database in memory.
type tables struct {
	types      map[string]core.ContentType
	contents   map[string]*ContentRecord
	recordings map[uint64]PendingRecording
	counters   Counters
	savedAt    time.Time
}

func newTables() *tables {
	return &tables{
		types:      make(map[string]core.ContentType),
		contents:   make(map[string]*ContentRecord),
		recordings: make(map[uint64]PendingRecording),
	}
}

// load plays a snapshot into the tables, as the mutations that would
// have built it.
func (t *tables) load(snap *State) {
	for _, typ := range snap.Types {
		t.apply(PutType(typ))
	}
	for _, rec := range snap.Contents {
		t.apply(PutContent(rec))
	}
	for _, r := range snap.Recordings {
		t.apply(PutRecording(r))
	}
	t.apply(SetCounters(snap.Counters))
	t.savedAt = snap.SavedAt
}

// snapshot freezes the tables into a State (deterministic order, deep
// copies).
func (t *tables) snapshot() *State {
	out := &State{Counters: t.counters, SavedAt: t.savedAt}
	for _, n := range sortedKeys(t.types) {
		out.Types = append(out.Types, t.types[n])
	}
	for _, n := range sortedKeys(t.contents) {
		out.Contents = append(out.Contents, cloneRecord(*t.contents[n]))
	}
	out.Recordings = t.pending()
	return out
}

// pending lists the in-flight recordings in group order (deep copies).
func (t *tables) pending() []PendingRecording {
	var out []PendingRecording
	for _, r := range t.recordings {
		out = append(out, cloneRecording(r))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// apply plays one mutation into the tables — the one function that
// changes them, for a live Apply and for journal replay alike. Unknown
// ops are ignored so an older binary can replay a newer journal's
// prefix.
func (t *tables) apply(m Mutation) {
	switch m.Op {
	case opPutType:
		if m.Type != nil {
			t.types[m.Type.Name] = *m.Type
		}
	case opPutContent:
		if m.Content != nil {
			rec := cloneRecord(*m.Content)
			rec.applyLocation(m)
			t.contents[rec.Info.Name] = &rec
		}
	case opDeleteContent: // and every composite the title is a child of
		maps.DeleteFunc(t.contents, func(name string, rec *ContentRecord) bool {
			return name == m.Name || slices.Contains(rec.Info.Children, m.Name)
		})
	case opSetLocation, opDropLocation:
		if rec := t.contents[m.Name]; rec != nil {
			rec.applyLocation(m)
		}
	case opSetCounters:
		if m.Counters != nil {
			t.counters = maxCounters(t.counters, *m.Counters)
		}
	case opPutRecording:
		if m.Recording != nil {
			t.recordings[m.Recording.Group] = cloneRecording(*m.Recording)
		}
	case opDeleteRecording:
		delete(t.recordings, m.Group)
	}
}

// applyLocation is the location half of apply: it sets or drops one
// replica, keeping Locations in MSU id order (a put only sorts them). A
// record with children holds none, whatever an older journal or
// snapshot says.
func (r *ContentRecord) applyLocation(m Mutation) {
	at := func(id core.MSUID) int {
		return sort.Search(len(r.Locations), func(i int) bool { return r.Locations[i].MSU >= id })
	}
	switch {
	case len(r.Info.Children) > 0:
		r.Locations = nil
	case m.Op == opPutContent:
		sort.SliceStable(r.Locations, func(i, j int) bool { return r.Locations[i].MSU < r.Locations[j].MSU })
	case m.Op == opSetLocation && m.Location != nil:
		i := at(m.Location.MSU)
		if i == len(r.Locations) || r.Locations[i].MSU != m.Location.MSU {
			r.Locations = append(r.Locations, Location{})
			copy(r.Locations[i+1:], r.Locations[i:])
		}
		r.Locations[i] = *m.Location
	case m.Op == opDropLocation:
		if i := at(m.MSU); i < len(r.Locations) && r.Locations[i].MSU == m.MSU {
			r.Locations = append(r.Locations[:i], r.Locations[i+1:]...)
		}
	}
}

func maxCounters(a, b Counters) Counters {
	return Counters{NextSession: max(a.NextSession, b.NextSession), NextStream: max(a.NextStream, b.NextStream),
		NextGroup: max(a.NextGroup, b.NextGroup), NextPort: max(a.NextPort, b.NextPort)}
}

func cloneRecord(rec ContentRecord) ContentRecord {
	rec.Info.Children = append([]string(nil), rec.Info.Children...)
	rec.Locations = append([]Location(nil), rec.Locations...)
	return rec
}

func cloneRecording(r PendingRecording) PendingRecording {
	r.Contents = append([]string(nil), r.Contents...)
	return r
}
