package msufs

import (
	"fmt"
	"sort"
)

// FsckIssue describes one inconsistency Fsck found.
type FsckIssue struct {
	File string
	Desc string
}

func (i FsckIssue) String() string {
	if i.File == "" {
		return i.Desc
	}
	return fmt.Sprintf("%s: %s", i.File, i.Desc)
}

// Fsck audits the volume's metadata: extents within bounds, no
// overlaps between files, sizes consistent with allocation, and the
// free-space accounting identity. It never modifies anything; the MSU
// operator runs it against a mounted disk image after a crash or a
// corruption scare.
func (v *Volume) Fsck() []FsckIssue {
	v.mu.Lock()
	defer v.mu.Unlock()

	var issues []FsckIssue
	type span struct {
		start, end int64
		file       string
	}
	var spans []span

	for name, m := range v.files {
		var blocks int64
		for _, e := range m.Extents {
			switch {
			case e.Count <= 0:
				issues = append(issues, FsckIssue{File: name, Desc: fmt.Sprintf("empty extent at block %d", e.Start)})
			case e.Start < 0 || e.Count > v.nblocks-e.Start: // not Start+Count: Mount runs this on untrusted numbers
				issues = append(issues, FsckIssue{File: name, Desc: fmt.Sprintf("extent [%d,%d) outside volume of %d blocks", e.Start, e.Start+e.Count, v.nblocks)})
			default:
				spans = append(spans, span{start: e.Start, end: e.Start + e.Count, file: name})
			}
			blocks += e.Count
		}
		if need := (m.Size + int64(v.blockSize) - 1) / int64(v.blockSize); m.Size >= 0 && need > blocks {
			issues = append(issues, FsckIssue{File: name, Desc: fmt.Sprintf("size %d bytes needs %d blocks but only %d allocated", m.Size, need, blocks)})
		}
		if m.Size < 0 {
			issues = append(issues, FsckIssue{File: name, Desc: fmt.Sprintf("negative size %d", m.Size)})
		}
	}

	// Overlaps between files (or within one file).
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	for i := 1; i < len(spans); i++ {
		if spans[i].start < spans[i-1].end {
			issues = append(issues, FsckIssue{
				File: spans[i].file,
				Desc: fmt.Sprintf("extent [%d,%d) overlaps %s", spans[i].start, spans[i].end, spans[i-1].file),
			})
		}
	}

	// Accounting identity: free + allocated == total (only meaningful
	// when no overlaps corrupt the sum).
	var free int64
	for _, e := range v.freeByLen {
		free += e.Count
		if e.Start < 0 || e.Count <= 0 || e.Start+e.Count > v.nblocks {
			issues = append(issues, FsckIssue{Desc: fmt.Sprintf("free extent [%d,%d) invalid", e.Start, e.Start+e.Count)})
		}
	}
	var allocated int64
	for _, m := range v.files {
		allocated += m.blocks()
	}
	if len(issues) == 0 && free+allocated != v.nblocks {
		issues = append(issues, FsckIssue{Desc: fmt.Sprintf("accounting: %d free + %d allocated != %d total", free, allocated, v.nblocks)})
	}
	return issues
}
