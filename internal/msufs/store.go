package msufs

import "sort"

// Store abstracts one *logical* disk as the MSU sees it: either a
// single Volume (the paper's layout — every file on one disk) or a
// StripeSet (the §2.3.3 alternative — consecutive blocks on adjacent
// disks). The MSU's play/record/ingest paths run identically over
// both, which is what makes the striping trade-off measurable.
type Store interface {
	BlockSize() int
	TotalBlocks() int64
	FreeBlocks() int64
	Create(name string, reserveBytes int64, attrs map[string]string) (StoreFile, error)
	Open(name string) (StoreFile, error)
	Remove(name string) error
	Stat(name string) (FileInfo, error)
	SetAttrs(name string, attrs map[string]string) error
	List() []FileInfo
	// Width reports the number of physical disks behind the store.
	Width() int
}

// StoreFile is a file within a Store. It satisfies ibtree.BlockFile.
type StoreFile interface {
	Name() string
	Size() int64
	WriteBlock(i int64, p []byte) error
	ReadBlock(i int64, p []byte) error
	BlockLen(i int64) int
	Commit() error
	Attrs() map[string]string
	// Locate maps a file block index to the physical volume holding it
	// and the device byte offset within that volume, so reads can be
	// submitted to the volume's I/O scheduler instead of going through
	// ReadBlock.
	Locate(i int64) (*Volume, int64, error)
}

// volumeStore adapts a single Volume.
type volumeStore struct{ v *Volume }

// NewStore wraps one volume as a logical disk.
func NewStore(v *Volume) Store { return volumeStore{v} }

func (s volumeStore) BlockSize() int     { return s.v.BlockSize() }
func (s volumeStore) TotalBlocks() int64 { return s.v.TotalBlocks() }
func (s volumeStore) FreeBlocks() int64  { return s.v.FreeBlocks() }
func (s volumeStore) Width() int         { return 1 }
func (s volumeStore) Create(name string, reserveBytes int64, attrs map[string]string) (StoreFile, error) {
	return s.v.Create(name, reserveBytes, attrs)
}
func (s volumeStore) Open(name string) (StoreFile, error) { return s.v.Open(name) }
func (s volumeStore) Remove(name string) error            { return s.v.Remove(name) }
func (s volumeStore) Stat(name string) (FileInfo, error)  { return s.v.Stat(name) }
func (s volumeStore) List() []FileInfo                    { return s.v.List() }
func (s volumeStore) SetAttrs(name string, attrs map[string]string) error {
	return s.v.SetAttrs(name, attrs)
}

// stripeStore adapts a StripeSet.
type stripeStore struct{ s *StripeSet }

// NewStripedStore wraps a stripe set as one logical disk.
func NewStripedStore(s *StripeSet) Store { return stripeStore{s} }

func (s stripeStore) BlockSize() int { return s.s.BlockSize() }
func (s stripeStore) Width() int     { return s.s.Width() }

func (s stripeStore) TotalBlocks() int64 {
	var n int64
	for _, v := range s.s.vols {
		n += v.TotalBlocks()
	}
	return n
}

func (s stripeStore) FreeBlocks() int64 {
	var n int64
	for _, v := range s.s.vols {
		n += v.FreeBlocks()
	}
	return n
}

func (s stripeStore) Create(name string, reserveBytes int64, attrs map[string]string) (StoreFile, error) {
	return s.s.Create(name, reserveBytes, attrs)
}
func (s stripeStore) Open(name string) (StoreFile, error) { return s.s.Open(name) }
func (s stripeStore) Remove(name string) error            { return s.s.Remove(name) }

// Stat reports logical file info: attributes from the anchor volume,
// size from the stripe, blocks summed across volumes.
func (s stripeStore) Stat(name string) (FileInfo, error) {
	fi, err := s.s.vols[0].Stat(name)
	if err != nil {
		return FileInfo{}, err
	}
	f, err := s.s.Open(name)
	if err != nil {
		return FileInfo{}, err
	}
	fi.Size = f.Size()
	var blocks int64
	for _, v := range s.s.vols {
		if st, err := v.Stat(name); err == nil {
			blocks += st.Blocks
		}
	}
	fi.Blocks = blocks
	return fi, nil
}

func (s stripeStore) SetAttrs(name string, attrs map[string]string) error {
	return s.s.vols[0].SetAttrs(name, attrs)
}

// List enumerates the stripe's files with logical sizes: the union of
// the members' names, because a create or a remove cut short between
// members leaves a name on some of them only. Such a name does not Stat
// as a whole striped file and is listed as what it is — uncommitted,
// without attributes — so nothing takes it for content and the MSU's
// start-up sweep removes what there is of it.
func (s stripeStore) List() []FileInfo {
	seen := make(map[string]bool)
	var out []FileInfo
	for _, v := range s.s.vols {
		for _, fi := range v.List() {
			if seen[fi.Name] {
				continue
			}
			seen[fi.Name] = true
			full, err := s.Stat(fi.Name)
			if err != nil {
				full = FileInfo{Name: fi.Name}
			}
			out = append(out, full)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
