package msu

import (
	"encoding/json"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"calliope/internal/blockdev"
	"calliope/internal/core"
	"calliope/internal/faultinject"
	"calliope/internal/ibtree"
	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
	"calliope/internal/units"
	"calliope/internal/wire"
)

// record starts a recording of content on the rig's MSU and returns
// where to send the packets and the stream's control peer.
func (r *vcrRig) record(content string) (*net.UDPConn, *wire.Peer) {
	r.t.Helper()
	r.next++
	ok, err := r.m.startStream(core.StreamSpec{
		Stream: core.StreamID(r.next), Group: r.next, GroupSize: 1, Record: true,
		Content: content, Type: "mpeg1", Protocol: "cbr", Class: core.ConstantRate,
		Rate: 1500 * units.Kbps, Estimate: time.Minute, Reserved: 12 * units.MB,
		ClientTCP: r.ln.Addr().String(),
	})
	if err != nil {
		r.t.Fatal(err)
	}
	sink, err := net.ResolveUDPAddr("udp", ok.DataAddr)
	if err != nil {
		r.t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, sink)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { conn.Close() }) //nolint:errcheck
	return conn, <-r.vcrs
}

// declared lists what the MSU's next hello would declare on disk 0.
func declared(m *MSU) []string {
	var names []string
	for _, d := range m.buildHello().Disks[0].Contents {
		names = append(names, d.Name)
	}
	return names
}

// TestFaultRecorderPublishFailureAborts: the metadata region stops
// taking writes while a recording is stopped, so its publish cannot
// land. The recording is aborted, not left half-made: its file is gone,
// the reservation is back, the next hello does not declare the name —
// and what the dead region still says on disk is swept by the next start.
func TestFaultRecorderPublishFailureAborts(t *testing.T) {
	const blockSize = 64 * 1024
	mem, err := blockdev.NewMem(32 * int64(units.MB))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := faultinject.NewDevice(mem, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := msufs.Format(dev, msufs.Options{BlockSize: blockSize, MetaSize: 4 * blockSize})
	if err != nil {
		t.Fatal(err)
	}
	r := newVCRRigOn(t, Config{Volumes: []*msufs.Volume{vol}})
	ingestMovie(t, r.m.stores[0], "movie", time.Second, 30)
	free := r.m.stores[0].FreeBlocks()

	conn, vcr := r.record("take")
	if got := r.m.stores[0].FreeBlocks(); got >= free {
		t.Fatalf("a one-minute recording reserved nothing: %d free blocks before, %d after", free, got)
	}
	for i := 0; i < 200; i++ {
		if _, err := conn.Write(make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(50 * time.Millisecond) // let the recorder take them off the socket
	dev.FailWrites(0, 4)              // the metadata region
	r.quit(vcr)

	if got := r.m.stores[0].FreeBlocks(); got != free {
		t.Errorf("%d free blocks after the failed publish, %d before the recording", got, free)
	}
	if _, err := r.m.stores[0].Stat("take"); err == nil {
		t.Error("the recording's file outlived its failed publish")
	}
	if got := declared(r.m); !reflect.DeepEqual(got, []string{"movie"}) {
		t.Errorf("the next hello declares %q, want only the movie", got)
	}

	// The removal could not be written either: the disk still holds the
	// reservation. A restart mounts it and sweeps it.
	dev.Heal()
	remounted, err := msufs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remounted.Stat("take"); err != nil {
		t.Fatal("the test means to restart over a disk that still lists the recording")
	}
	m2, err := New(Config{ID: "again", Coordinator: "127.0.0.1:1", Volumes: []*msufs.Volume{remounted}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close() //nolint:errcheck
	if got := m2.stores[0].FreeBlocks(); got != free {
		t.Errorf("%d free blocks after the restart, %d before the recording", got, free)
	}
	if got := declared(m2); !reflect.DeepEqual(got, []string{"movie"}) {
		t.Errorf("after the restart the hello declares %q, want only the movie", got)
	}
}

// ingestParentWay writes content the way every commit before the single
// writer did — the type stamped at Create, then Commit, then one
// metadata write per attribute — so the tests below hold what is
// already on people's disks.
func ingestParentWay(t *testing.T, store msufs.Store, name string, pkts []media.Packet, later map[string]string) {
	t.Helper()
	f, err := store.Create(name, int64(len(pkts))*1100, map[string]string{AttrType: "mpeg1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ibtree.NewBuilder(f, store.BlockSize(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := b.Append(ibtree.Packet{Time: p.Time, Payload: protocol.EncodeStored(protocol.Data, p.Payload)}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	attrs := []struct{ k, v string }{{AttrTree, string(raw)}, {AttrLength, strconv.FormatInt(int64(meta.Length), 10)}}
	for k, v := range later {
		attrs = append(attrs, struct{ k, v string }{k, v})
	}
	for _, a := range attrs {
		if err := store.SetAttrs(name, map[string]string{a.k: a.v}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSweepOnStartup leaves on a store what crashes leave — (a) a typed
// file that was never committed, holding a one-minute reservation, (b)
// an attribute-less partial replica, (c) a committed file whose
// publishing write never landed, (d) a fast-scan companion nothing
// links to — beside (e) a title and companions written the parent
// commit's way, and on the striped store (f) a file only one member
// holds. A fresh mount and New keep exactly (e): the blocks are
// back, the hello declares the title alone, and it plays and scans.
func TestSweepOnStartup(t *testing.T) {
	for _, striped := range []bool{false, true} {
		name := map[bool]string{false: "volume", true: "striped"}[striped]
		t.Run(name, func(t *testing.T) {
			const blockSize = 64 * 1024
			devs := make([]blockdev.BlockDevice, 1)
			if striped {
				devs = make([]blockdev.BlockDevice, 2)
			}
			mount := func(open func(blockdev.BlockDevice) (*msufs.Volume, error)) ([]*msufs.Volume, msufs.Store) {
				vols := make([]*msufs.Volume, len(devs))
				for i, dev := range devs {
					vol, err := open(dev)
					if err != nil {
						t.Fatal(err)
					}
					vols[i] = vol
				}
				if !striped {
					return vols, msufs.NewStore(vols[0])
				}
				set, err := msufs.NewStripeSet(vols...)
				if err != nil {
					t.Fatal(err)
				}
				return vols, msufs.NewStripedStore(set)
			}
			for i := range devs {
				mem, err := blockdev.NewMem(32 * int64(units.MB))
				if err != nil {
					t.Fatal(err)
				}
				devs[i] = mem
			}
			vols, store := mount(func(dev blockdev.BlockDevice) (*msufs.Volume, error) {
				return msufs.Format(dev, msufs.Options{BlockSize: blockSize})
			})

			// (e), the parent's way: the title, then the companions, then the
			// links and the companions' role, each its own metadata write.
			pkts := testStream(t, 4*time.Second)
			ff, err := media.FilterFast(pkts, 15, false)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := media.FilterFast(pkts, 15, true)
			if err != nil {
				t.Fatal(err)
			}
			ingestParentWay(t, store, "movie", pkts, nil)
			ingestParentWay(t, store, "movie.ff", ff, nil)
			ingestParentWay(t, store, "movie.fb", fb, nil)
			for _, a := range [][3]string{
				{"movie", AttrFastFwd, "movie.ff"}, {"movie", AttrFastBack, "movie.fb"}, {"movie", AttrEvery, "15"},
				{"movie.ff", AttrFastRole, "companion"}, {"movie.fb", AttrFastRole, "companion"},
			} {
				if err := store.SetAttrs(a[0], map[string]string{a[1]: a[2]}); err != nil {
					t.Fatal(err)
				}
			}
			free := store.FreeBlocks()

			junk := make([]byte, blockSize)
			fill := func(f msufs.StoreFile, err error) msufs.StoreFile {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i < 3; i++ {
					if err := f.WriteBlock(i, junk); err != nil {
						t.Fatal(err)
					}
				}
				return f
			}
			minute := int64(1500*units.Kbps) / 8 * 60
			fill(store.Create("crashed-take", minute, map[string]string{AttrType: "mpeg1"}))     // (a)
			fill(store.Create("half-replica", 8*blockSize, nil))                                 // (b)
			if err := fill(store.Create("unpublished", 8*blockSize, nil)).Commit(); err != nil { // (c)
				t.Fatal(err)
			}
			ingestParentWay(t, store, "gone.ff", ff, map[string]string{AttrFastRole: "companion"}) // (d)
			leftovers := 4
			if striped {
				// (f) a striped create cut short between members: the name
				// is on member 1 only, where the anchor's listing never looks.
				fill(vols[1].Create("cut-short", 8*blockSize, nil))
				leftovers++
			}
			if got := store.FreeBlocks(); got >= free-minute/blockSize {
				t.Fatalf("the leftovers hold %d blocks, less than the one-minute reservation", free-got)
			}

			vols, store = mount(msufs.Mount)
			if got := len(store.List()); got != 3+leftovers {
				t.Fatalf("the fresh mount lists %d files, want the 3 of the title and %d leftovers", got, leftovers)
			}
			r := newVCRRigOn(t, Config{Volumes: vols, Striped: striped})
			var names []string
			for _, fi := range r.m.stores[0].List() {
				names = append(names, fi.Name)
			}
			if want := []string{"movie", "movie.fb", "movie.ff"}; !reflect.DeepEqual(names, want) {
				t.Errorf("after New the store holds %q, want %q", names, want)
			}
			if got := r.m.stores[0].FreeBlocks(); got != free {
				t.Errorf("%d free blocks after the sweep, %d with only the title present", got, free)
			}
			hello := r.m.buildHello()
			if got := declared(r.m); !reflect.DeepEqual(got, []string{"movie"}) || !hello.Disks[0].Contents[0].HasFast {
				t.Errorf("the hello declares %+v, want the movie alone, with fast scan", hello.Disks[0].Contents)
			}
			if hello.Disks[0].FreeBlocks != free {
				t.Errorf("the hello reports %d free blocks, want %d", hello.Disks[0].FreeBlocks, free)
			}
			p := r.play("movie")
			r.frame(0)
			r.vcr(p, "seek", 2*time.Second)
			r.frame(55)
			r.vcr(p, "fast-forward", 0)
			// The companion numbers its own frames: 2 s in is its frame 4 of 8,
			// where the title itself is past frame 55.
			buf := make([]byte, 4096)
			r.sink.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
			for {
				n, _, err := r.sink.ReadFromUDP(buf)
				if err != nil {
					t.Fatalf("no packet of the fast-forward companion: %v", err)
				}
				h, err := media.ParseHeader(buf[:n])
				if err != nil {
					t.Fatal(err)
				}
				if h.Frame >= 4 && h.Frame < 8 {
					break
				}
			}
			r.quit(p)
		})
	}
}

// TestLayoutMismatchRefused serves two volumes under the other layout
// than they were written under, both ways round. New refuses, naming the
// title, and has removed nothing: every block is still allocated and the
// title still reads back under the layout it was written in.
func TestLayoutMismatchRefused(t *testing.T) {
	for _, written := range []bool{false, true} {
		name := map[bool]string{false: "written per volume, served striped", true: "written striped, served per volume"}[written]
		t.Run(name, func(t *testing.T) {
			vols := make([]*msufs.Volume, 2)
			for i := range vols {
				mem, err := blockdev.NewMem(8 * int64(units.MB))
				if err != nil {
					t.Fatal(err)
				}
				if vols[i], err = msufs.Format(mem, msufs.Options{BlockSize: 64 * 1024}); err != nil {
					t.Fatal(err)
				}
			}
			store := msufs.NewStore(vols[1]) // not the anchor: every member is looked at
			if written {
				set, err := msufs.NewStripeSet(vols...)
				if err != nil {
					t.Fatal(err)
				}
				store = msufs.NewStripedStore(set)
			}
			pkts := testStream(t, 2*time.Second)
			if err := Ingest(store, "movie", "mpeg1", pkts); err != nil {
				t.Fatal(err)
			}
			if err := IngestFast(store, "movie", "mpeg1", pkts, 15); err != nil {
				t.Fatal(err)
			}
			free := []int64{vols[0].FreeBlocks(), vols[1].FreeBlocks()}

			m, err := New(Config{ID: "m", Coordinator: "127.0.0.1:1", Volumes: vols, Striped: !written})
			if err == nil {
				m.Close() //nolint:errcheck
				t.Fatal("New served the volumes under the layout they were not written in")
			}
			if !strings.Contains(err.Error(), `"movie"`) {
				t.Errorf("the refusal does not name the file: %v", err)
			}
			for i, v := range vols {
				if got := v.FreeBlocks(); got != free[i] {
					t.Errorf("volume %d has %d free blocks after the refusal, %d before", i, got, free[i])
				}
			}
			back, err := ReadBack(store, "movie")
			if err != nil || len(back) != len(pkts) {
				t.Errorf("the title reads back %d of %d packets after the refusal: %v", len(back), len(pkts), err)
			}

			// Served as written, the same volumes are accepted whole.
			m, err = New(Config{ID: "m", Coordinator: "127.0.0.1:1", Volumes: vols, Striped: written})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close() //nolint:errcheck
			var got []string
			for _, d := range m.buildHello().Disks {
				for _, c := range d.Contents {
					got = append(got, c.Name)
				}
			}
			if !reflect.DeepEqual(got, []string{"movie"}) {
				t.Errorf("served as written the hello declares %q, want the movie", got)
			}
		})
	}
}
