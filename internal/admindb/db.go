package admindb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"calliope/internal/core"
)

// File names inside the state directory.
const (
	snapshotFile = "snapshot.json"
	snapshotTmp  = "snapshot.json.tmp"
	journalFile  = "journal.log"
)

// DefaultCompactAfter is the journal record count that triggers an
// automatic snapshot + journal truncation.
const DefaultCompactAfter = 4096

// Options configures a database opened on a state directory.
type Options struct {
	// Dir is the state directory; created if missing.
	Dir string
	// Now supplies the clock for snapshot timestamps; nil means
	// time.Now. Injected so the package stays deterministic (walltime
	// analyzer).
	Now func() time.Time
	// CompactAfter is the number of journal records after which Apply
	// compacts automatically. Zero means DefaultCompactAfter; negative
	// disables auto-compaction (Compact can still be called).
	CompactAfter int
	// Logger receives recovery notices (truncated-tail repair); nil
	// disables logging.
	Logger *log.Logger
}

// DB is the administrative database: the tables and, when it was
// opened on a state directory, the snapshot + journal that make them
// durable. Safe for concurrent use; mu also keeps the journal file safe
// from a Close racing an Apply (a crash test cuts the database off
// under a running Coordinator).
type DB struct {
	opts Options

	mu sync.Mutex
	t  *tables
	// journal is nil in NewMem's database: Apply writes nothing.
	journal *os.File
	// records counts journal records since the last snapshot, for
	// auto-compaction.
	records int
	closed  bool
}

// Store is the handle coordinator.Config.Store takes: Open's database,
// NewMem's, or nil for "none given".
type Store = *DB

// NewMem returns an empty database with no journal behind it: the same
// tables and the same Apply, nothing durable. A test "restarts" by
// handing it to a freshly built Coordinator.
func NewMem() *DB {
	return &DB{t: newTables()}
}

// Open opens (creating if needed) the state directory, loads the
// snapshot, replays the journal, and repairs a damaged journal tail
// by truncating it back to the last intact record.
func Open(opts Options) (*DB, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("admindb: Options.Dir is required")
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.CompactAfter == 0 {
		opts.CompactAfter = DefaultCompactAfter
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("admindb: creating state dir: %w", err)
	}
	db := &DB{opts: opts, t: newTables()}
	snapPath := filepath.Join(opts.Dir, snapshotFile)
	raw, err := os.ReadFile(snapPath)
	switch {
	case err == nil:
		var snap State
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, fmt.Errorf("admindb: snapshot %s is corrupt: %w", snapPath, err)
		}
		db.t.load(&snap)
	case errors.Is(err, fs.ErrNotExist):
		// First boot, or the snapshot was lost: the journal alone must
		// carry the state.
	default:
		return nil, fmt.Errorf("admindb: reading snapshot: %w", err)
	}

	jPath := filepath.Join(opts.Dir, journalFile)
	j, err := os.OpenFile(jPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("admindb: opening journal: %w", err)
	}
	data, err := os.ReadFile(jPath)
	if err != nil {
		j.Close() //nolint:errcheck // the read error is the one reported
		return nil, fmt.Errorf("admindb: reading journal: %w", err)
	}
	good, records := replayJournal(data, db.t)
	if good < int64(len(data)) {
		// Crash-truncated or corrupted tail: cut it off so appends land
		// after the last committed record.
		db.logf("journal tail damaged: keeping %d records (%d bytes), discarding %d bytes",
			records, good, int64(len(data))-good)
		if err := j.Truncate(good); err != nil {
			j.Close() //nolint:errcheck // the truncate error is the one reported
			return nil, fmt.Errorf("admindb: repairing journal tail: %w", err)
		}
		if err := j.Sync(); err != nil {
			j.Close() //nolint:errcheck // the sync error is the one reported
			return nil, fmt.Errorf("admindb: repairing journal tail: %w", err)
		}
	}
	if _, err := j.Seek(0, 2); err != nil {
		j.Close() //nolint:errcheck // the seek error is the one reported
		return nil, fmt.Errorf("admindb: seeking journal end: %w", err)
	}
	db.journal = j
	db.records = records
	if err := syncDir(opts.Dir); err != nil {
		j.Close() //nolint:errcheck // the dir-sync error is the one reported
		return nil, err
	}
	return db, nil
}

func (db *DB) logf(format string, args ...any) {
	if db.opts.Logger != nil {
		db.opts.Logger.Printf("admindb: "+format, args...)
	}
}

// Type looks a content type up by name.
func (db *DB) Type(name string) (core.ContentType, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.t.types[name]
	return t, ok
}

// Types lists the content types in name order.
func (db *DB) Types() []core.ContentType {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]core.ContentType, 0, len(db.t.types))
	for _, n := range sortedKeys(db.t.types) {
		out = append(out, db.t.types[n])
	}
	return out
}

// Content looks a table-of-contents entry up by name; nil when there
// is none. The same entry is returned until a PutContent or
// DeleteContent replaces it — location records change it in place — so
// a caller may compare pointers to learn whether the item it saw
// earlier was deleted or re-created meanwhile.
func (db *DB) Content(name string) *ContentRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.t.contents[name]
}

// Contents lists the table of contents in name order.
func (db *DB) Contents() []*ContentRecord {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]*ContentRecord, 0, len(db.t.contents))
	for _, n := range sortedKeys(db.t.contents) {
		out = append(out, db.t.contents[n])
	}
	return out
}

// Recording looks an in-flight recording up by group.
func (db *DB) Recording(group uint64) (PendingRecording, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.t.recordings[group]
	return r, ok
}

// Recordings lists the in-flight recordings in group order.
func (db *DB) Recordings() []PendingRecording {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.t.pending()
}

// Counters reports the ID generators' last issued values.
func (db *DB) Counters() Counters {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.t.counters
}

// Load freezes the whole database into a State the caller owns.
func (db *DB) Load() (*State, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, fmt.Errorf("admindb: store closed")
	}
	return db.t.snapshot(), nil
}

// Apply is the one way the tables change. It stamps the batch (see
// stamp), journals it, in order, and fsyncs — the commit point — and
// only then plays it into the tables, through the apply function
// journal replay runs. On an error nothing has changed in memory. A
// crash mid-batch keeps a prefix of the batch (each record is
// individually CRC-framed). Without a journal the batch is just played.
func (db *DB) Apply(muts ...Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("admindb: store closed")
	}
	for i := range muts {
		db.t.stamp(&muts[i])
	}
	if db.journal != nil {
		var buf []byte
		var err error
		for _, m := range muts {
			if buf, err = appendFrame(buf, m); err != nil {
				return err
			}
		}
		if _, err := db.journal.Write(buf); err != nil {
			return fmt.Errorf("admindb: appending journal: %w", err)
		}
		if err := db.journal.Sync(); err != nil {
			return fmt.Errorf("admindb: committing journal: %w", err)
		}
	}
	for _, m := range muts {
		db.t.apply(m)
	}
	db.records += len(muts)
	if db.opts.CompactAfter > 0 && db.records >= db.opts.CompactAfter {
		if err := db.compactLocked(); err != nil {
			// The journal is intact and durable; compaction can retry on
			// a later Apply.
			db.logf("auto-compaction failed (will retry): %v", err)
		}
	}
	return nil
}

// Compact writes the tables as a fresh snapshot and truncates the
// journal. Without a journal there is nothing to do.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("admindb: store closed")
	}
	if db.journal == nil {
		return nil
	}
	return db.compactLocked()
}

func (db *DB) compactLocked() error {
	db.t.savedAt = db.opts.Now()
	snap := db.t.snapshot()
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("admindb: encoding snapshot: %w", err)
	}
	tmp := filepath.Join(db.opts.Dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("admindb: writing snapshot: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close() //nolint:errcheck // the write error is the one reported
		return fmt.Errorf("admindb: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // the sync error is the one reported
		return fmt.Errorf("admindb: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("admindb: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.opts.Dir, snapshotFile)); err != nil {
		return fmt.Errorf("admindb: installing snapshot: %w", err)
	}
	if err := syncDir(db.opts.Dir); err != nil {
		return err
	}
	// The snapshot now covers every journaled record. Journal records
	// are idempotent, so a crash right here — snapshot installed,
	// journal not yet truncated — only replays what the snapshot
	// already contains.
	if err := db.journal.Truncate(0); err != nil {
		return fmt.Errorf("admindb: truncating journal: %w", err)
	}
	if _, err := db.journal.Seek(0, 0); err != nil {
		return fmt.Errorf("admindb: rewinding journal: %w", err)
	}
	if err := db.journal.Sync(); err != nil {
		return fmt.Errorf("admindb: syncing truncated journal: %w", err)
	}
	db.records = 0
	return nil
}

// Close releases the journal handle and refuses every later Apply.
// Every applied mutation is already durable; Close writes nothing —
// which makes it the tests' crash: cut the database off, then tear the
// Coordinator down.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.journal == nil {
		return nil
	}
	return db.journal.Close()
}

// Reopen lets a closed NewMem database serve a restarted Coordinator;
// one opened on a directory is reopened with Open.
func (db *DB) Reopen() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = false
}

// syncDir fsyncs a directory so renames and creates inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("admindb: opening state dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("admindb: syncing state dir: %w", err)
	}
	return nil
}
