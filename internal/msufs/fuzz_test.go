package msufs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"calliope/internal/blockdev"
)

// The fuzz volume: 4 KB blocks, a 4 KB metadata region, 16 data blocks.
const (
	fuzzBlock = 4096
	fuzzSize  = 17 * fuzzBlock
)

// fuzzDevice returns a zeroed device of the fuzz geometry with meta
// written over its start.
func fuzzDevice(t testing.TB, meta []byte) blockdev.BlockDevice {
	t.Helper()
	dev, err := blockdev.NewMem(fuzzSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta) > fuzzSize {
		meta = meta[:fuzzSize]
	}
	if err := dev.WriteAt(meta, 0); err != nil {
		t.Fatal(err)
	}
	return dev
}

// superblockImage frames a superblock's JSON the way flushLocked does.
func superblockImage(json string) []byte {
	buf := make([]byte, metaHeaderLen+len(json))
	binary.BigEndian.PutUint64(buf[:8], magic)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(json)))
	copy(buf[metaHeaderLen:], json)
	return buf
}

// corruptSuperblocks are well-framed superblocks Mount must refuse; each
// mounted silently, or panicked, before Mount validated what it read.
var corruptSuperblocks = map[string]string{
	"block size 0":          `{"blockSize":0,"metaSize":4096,"files":[]}`,
	"block size negative":   `{"blockSize":-4096,"metaSize":4096,"files":[]}`,
	"meta size 0":           `{"blockSize":4096,"metaSize":0,"files":[]}`,
	"meta size past device": `{"blockSize":4096,"metaSize":1099511627776,"files":[]}`,
	"no room for a block":   `{"blockSize":4096,"metaSize":69000,"files":[]}`,
	"null file":             `{"blockSize":4096,"metaSize":4096,"files":[null]}`,
	"unnamed file":          `{"blockSize":4096,"metaSize":4096,"files":[{"name":"","extents":[]}]}`,
	"repeated name":         `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","extents":[{"s":0,"c":1}]},{"name":"a","extents":[{"s":1,"c":1}]}]}`,
	"negative start":        `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","extents":[{"s":-1,"c":2}]}]}`,
	"negative count":        `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","extents":[{"s":3,"c":-2}]}]}`,
	"extent past the end":   `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","extents":[{"s":15,"c":2}]}]}`,
	"extent overflows":      `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","extents":[{"s":9223372036854775807,"c":2}]}]}`,
	"files share a block":   `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","extents":[{"s":0,"c":3}]},{"name":"b","extents":[{"s":2,"c":2}]}]}`,
	"file overlaps itself":  `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","extents":[{"s":0,"c":3},{"s":1,"c":1}]}]}`,
	"size past allocation":  `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","size":8193,"extents":[{"s":0,"c":2}]}]}`,
	"negative size":         `{"blockSize":4096,"metaSize":4096,"files":[{"name":"a","size":-1,"extents":[{"s":0,"c":2}]}]}`,
}

func corruptImage(body string) []byte {
	return superblockImage(fmt.Sprintf(`{"magic":%d,%s`, magic, body[1:]))
}

// TestMountRejectsCorruptSuperblock: each of them is refused as not a
// volume, never mounted and never a panic.
func TestMountRejectsCorruptSuperblock(t *testing.T) {
	for name, body := range corruptSuperblocks {
		if _, err := Mount(fuzzDevice(t, corruptImage(body))); !errors.Is(err, ErrNotFormatted) {
			t.Errorf("%s: Mount = %v, want an ErrNotFormatted", name, err)
		}
	}
	// The frame itself: a metadata length that runs off the device.
	img := corruptImage(`{"blockSize":4096,"metaSize":4096,"files":[]}`)
	binary.BigEndian.PutUint64(img[8:16], fuzzSize)
	if _, err := Mount(fuzzDevice(t, img)); !errors.Is(err, ErrNotFormatted) {
		t.Errorf("metadata length past the device: Mount = %v", err)
	}
}

// fuzzSeeds are metadata regions of real volumes: freshly formatted, one
// holding a published title and its companion, and that one with the
// tail of its metadata torn off.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	region := func(dev blockdev.BlockDevice) []byte {
		buf := make([]byte, fuzzBlock)
		if err := dev.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	dev := fuzzDevice(t, nil)
	v, err := Format(dev, Options{BlockSize: fuzzBlock, MetaSize: fuzzBlock})
	if err != nil {
		t.Fatal(err)
	}
	fresh := region(dev)
	for name, attrs := range map[string]map[string]string{
		"movie":    {"content-type": "mpeg1", "ibtree": `{"Pages":3}`, "length": "2000000000", "fastfwd": "movie.ff"},
		"movie.ff": {"content-type": "mpeg1", "ibtree": `{"Pages":1}`, "length": "130000000", "fast-role": "companion"},
	} {
		f, err := v.Create(name, 4*fuzzBlock, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteBlock(2, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := v.SetAttrs(name, attrs); err != nil {
			t.Fatal(err)
		}
	}
	published := region(dev)
	used := metaHeaderLen + int(binary.BigEndian.Uint64(published[8:16]))
	torn := append([]byte(nil), published...)
	for i := used * 2 / 3; i < len(torn); i++ {
		torn[i] = 0
	}
	return [][]byte{fresh, published, torn}
}

// FuzzMount feeds Mount arbitrary metadata regions. It must refuse or
// mount, never panic; what it refuses it calls not-a-volume; and what it
// mounts is a volume whose extents lie on the device, no two sharing a
// block, with free + allocated = total — checked block by block here, not
// with Fsck, which is what Mount itself asks — and which stays so through
// a create, a write, a commit and a remove.
func FuzzMount(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	for _, body := range corruptSuperblocks {
		f.Add(corruptImage(body))
	}
	f.Fuzz(func(t *testing.T, meta []byte) {
		v, err := Mount(fuzzDevice(t, meta))
		if err != nil {
			if !errors.Is(err, ErrNotFormatted) {
				t.Fatalf("a memory device refused nothing, yet Mount = %v", err)
			}
			return
		}
		check := func(when string) {
			t.Helper()
			owner := make(map[int64]string)
			for name, m := range v.files {
				for _, e := range m.Extents {
					if e.Start < 0 || e.Count <= 0 || e.Count > v.nblocks-e.Start {
						t.Fatalf("%s: %q holds extent %+v on a volume of %d blocks", when, name, e, v.nblocks)
					}
					for b := e.Start; b < e.Start+e.Count; b++ {
						if other, taken := owner[b]; taken {
							t.Fatalf("%s: block %d belongs to %q and to %q", when, b, other, name)
						}
						owner[b] = name
					}
				}
			}
			if free := v.FreeBlocks(); free+int64(len(owner)) != v.TotalBlocks() {
				t.Fatalf("%s: %d free + %d allocated != %d total", when, free, len(owner), v.TotalBlocks())
			}
		}
		check("mounted")
		v.List()
		if nf, err := v.Create("fuzz-made", int64(2*v.BlockSize()), nil); err == nil {
			nf.WriteBlock(3, make([]byte, v.BlockSize())) //nolint:errcheck // may run out of space
			check("after a create and a write")
			nf.Commit() //nolint:errcheck // may not fit the metadata region
			check("after a commit")
			v.Remove("fuzz-made") //nolint:errcheck
		}
		check("at the end")
	})
}
