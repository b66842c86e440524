package msufs

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// StripeSet lays a file out round-robin across several volumes —
// "consecutive blocks on adjacent disks" (§2.3.3). The paper's MSU did
// not stripe; this implementation exists so the trade-off the paper
// argues qualitatively (any client can reach any content vs a duty
// cycle N times longer) can be measured. Logical block i lives on
// volume i mod N at that volume's file block i div N.
type StripeSet struct {
	vols []*Volume
}

// AttrStripeSize is the attribute a committed striped file carries on its
// anchor volume: the logical size. A file written to one volume never has
// it, which is how a server tells the two layouts apart.
const AttrStripeSize = "stripe.size"

// NewStripeSet groups volumes into a striped layout. All volumes must
// share a block size.
func NewStripeSet(vols ...*Volume) (*StripeSet, error) {
	if len(vols) == 0 {
		return nil, fmt.Errorf("msufs: stripe set needs at least one volume")
	}
	bs := vols[0].BlockSize()
	for _, v := range vols[1:] {
		if v.BlockSize() != bs {
			return nil, fmt.Errorf("msufs: stripe set volumes disagree on block size (%d vs %d)", bs, v.BlockSize())
		}
	}
	return &StripeSet{vols: vols}, nil
}

// Width reports the number of disks in the stripe.
func (s *StripeSet) Width() int { return len(s.vols) }

// BlockSize reports the stripe's block size.
func (s *StripeSet) BlockSize() int { return s.vols[0].BlockSize() }

// StripedFile is a file spread round-robin across a StripeSet.
type StripedFile struct {
	set   *StripeSet
	name  string
	parts []*File
	// size is the logical valid-byte count. A recorder grows it while
	// concurrent readers (players, BlockLen) observe it, so it is
	// atomic; growth is a CAS-max so racing writers never shrink it.
	size atomic.Int64
}

// Create makes a striped file, dividing the reservation evenly.
func (s *StripeSet) Create(name string, reserveBytes int64, attrs map[string]string) (*StripedFile, error) {
	per := (reserveBytes + int64(len(s.vols)) - 1) / int64(len(s.vols))
	parts := make([]*File, len(s.vols))
	for i, v := range s.vols {
		var a map[string]string
		if i == 0 {
			a = attrs
		}
		f, err := v.Create(name, per, a)
		if err != nil {
			for j := 0; j < i; j++ {
				s.vols[j].Remove(name) //nolint:errcheck // best-effort rollback
			}
			return nil, fmt.Errorf("msufs: striped create on volume %d: %w", i, err)
		}
		parts[i] = f
	}
	return &StripedFile{set: s, name: name, parts: parts}, nil
}

// Open returns a handle to an existing striped file.
func (s *StripeSet) Open(name string) (*StripedFile, error) {
	parts := make([]*File, len(s.vols))
	for i, v := range s.vols {
		f, err := v.Open(name)
		if err != nil {
			return nil, fmt.Errorf("msufs: striped open on volume %d: %w", i, err)
		}
		parts[i] = f
	}
	sf := &StripedFile{set: s, name: name, parts: parts}
	if raw, ok := parts[0].Attrs()[AttrStripeSize]; ok {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("msufs: corrupt stripe size attr %q: %w", raw, err)
		}
		sf.size.Store(n)
	}
	return sf, nil
}

// Remove deletes the striped file from every volume.
func (s *StripeSet) Remove(name string) error {
	var firstErr error
	for i, v := range s.vols {
		if err := v.Remove(name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("msufs: striped remove on volume %d: %w", i, err)
		}
	}
	return firstErr
}

// Name reports the file's name.
func (f *StripedFile) Name() string { return f.name }

// Size reports the count of valid bytes.
func (f *StripedFile) Size() int64 { return f.size.Load() }

// WriteBlock writes p at logical block i.
func (f *StripedFile) WriteBlock(i int64, p []byte) error {
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrBadBlock, i)
	}
	n := int64(len(f.parts))
	if err := f.parts[i%n].WriteBlock(i/n, p); err != nil {
		return err
	}
	end := i*int64(f.set.BlockSize()) + int64(len(p))
	for {
		cur := f.size.Load()
		if end <= cur || f.size.CompareAndSwap(cur, end) {
			return nil
		}
	}
}

// ReadBlock fills p from logical block i.
func (f *StripedFile) ReadBlock(i int64, p []byte) error {
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrBadBlock, i)
	}
	n := int64(len(f.parts))
	return f.parts[i%n].ReadBlock(i/n, p)
}

// Locate maps logical block i to its stripe member's volume and
// device offset. Consecutive logical blocks land on adjacent volumes
// (§2.3.3), which is what lets a player's read-ahead fan out across
// min(K, width) member schedulers in parallel.
func (f *StripedFile) Locate(i int64) (*Volume, int64, error) {
	if i < 0 {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadBlock, i)
	}
	n := int64(len(f.parts))
	return f.parts[i%n].Locate(i / n)
}

// BlockLen reports how many valid bytes logical block i holds.
func (f *StripedFile) BlockLen(i int64) int {
	return validLen(f.size.Load(), f.set.BlockSize(), i)
}

// Attrs returns the logical file's attributes, which live on the
// anchor volume.
func (f *StripedFile) Attrs() map[string]string { return f.parts[0].Attrs() }

// Commit trims every part's reservation and records the logical size.
func (f *StripedFile) Commit() error {
	// Clamp each part's size to what the logical size implies so the
	// trim returns all over-reservation.
	for i, p := range f.parts {
		if err := p.Commit(); err != nil {
			return fmt.Errorf("msufs: striped commit on volume %d: %w", i, err)
		}
	}
	return f.set.vols[0].SetAttrs(f.name, map[string]string{AttrStripeSize: strconv.FormatInt(f.size.Load(), 10)})
}
