package faultinject

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"calliope/internal/await"
	"calliope/internal/blockdev"
)

// pipePair builds a tracked connection over a loopback listener and
// returns (injected side, raw peer side).
func pipePair(t *testing.T, in *Injector) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dial := in.Dial(nil)
	client, err := dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { client.Close(); a.conn.Close() })
	return client, a.conn
}

func TestDialFaultsAndPartition(t *testing.T) {
	in := New(Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	dial := in.Dial(nil)

	in.FailDials(2)
	for i := 0; i < 2; i++ {
		if _, err := dial("tcp", ln.Addr().String()); !errors.Is(err, ErrInjected) {
			t.Fatalf("dial %d: got %v, want ErrInjected", i, err)
		}
	}
	c, err := dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after faults drained: %v", err)
	}
	c.Close()

	in.Partition(true)
	if _, err := dial("tcp", ln.Addr().String()); !errors.Is(err, ErrInjected) {
		t.Fatalf("partitioned dial: got %v, want ErrInjected", err)
	}
	in.Partition(false)
	c, err = dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
}

func TestScriptedDrop(t *testing.T) {
	in := New(Options{})
	in.Script(Rule{Conn: 0, Op: Drop})
	client, server := pipePair(t, in)
	if _, err := client.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write on dropped conn: got %v, want ErrInjected", err)
	}
	// The peer sees the break.
	server.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := server.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded on severed connection")
	}
}

func TestScriptedHangReleasedByCut(t *testing.T) {
	in := New(Options{})
	in.Script(Rule{Conn: 0, Op: Hang})
	client, _ := pipePair(t, in)
	var wg sync.WaitGroup
	wg.Add(1)
	var readErr error
	go func() {
		defer wg.Done()
		_, readErr = client.Read(make([]byte, 1))
	}()
	in.CutAll()
	wg.Wait()
	if !errors.Is(readErr, ErrInjected) {
		t.Fatalf("hung read released with %v, want ErrInjected", readErr)
	}
}

func TestPartialWriteSevers(t *testing.T) {
	in := New(Options{})
	in.Script(Rule{Conn: 0, Op: PartialWrite})
	client, server := pipePair(t, in)
	payload := []byte("0123456789")
	n, err := client.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partial write: got %v, want ErrInjected", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("partial write delivered %d bytes, want %d", n, len(payload)/2)
	}
	// Only the delivered half reaches the peer before the break.
	server.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if string(got) != "01234" {
		t.Fatalf("peer saw %q, want %q", got, "01234")
	}
}

func TestDelayedCloseOnInjectedClock(t *testing.T) {
	tick := make(chan time.Time)
	in := New(Options{After: func(time.Duration) <-chan time.Time { return tick }})
	in.Script(Rule{Conn: 0, Op: DelayedClose, Delay: time.Hour})
	client, server := pipePair(t, in)

	// Before the tick, the connection works both ways.
	if _, err := client.Write([]byte("a")); err != nil {
		t.Fatalf("write before delay: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("peer read: %v", err)
	}

	tick <- time.Time{} // fire the scripted timer
	await.Until(t, "the connection to be severed after the delayed close fired", func() bool {
		_, err := client.Write([]byte("b"))
		return errors.Is(err, ErrInjected)
	})
}

func TestCutAllAndLive(t *testing.T) {
	in := New(Options{})
	c1, _ := pipePair(t, in)
	c2, _ := pipePair(t, in)
	if got := in.Live(); got != 2 {
		t.Fatalf("live = %d, want 2", got)
	}
	in.CutAll()
	if got := in.Live(); got != 0 {
		t.Fatalf("live after CutAll = %d, want 0", got)
	}
	for i, c := range []net.Conn{c1, c2} {
		if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
			t.Fatalf("conn %d writable after CutAll: %v", i, err)
		}
	}
}

// closeLog is a net.Conn that only records when it was closed.
type closeLog struct {
	net.Conn
	id    int
	order *[]int
}

func (c closeLog) Close() error {
	*c.order = append(*c.order, c.id)
	return nil
}

// TestCutAllInOpenOrder pins what a crash looks like from outside: the
// connections die oldest first, whatever the map holding them says.
func TestCutAllInOpenOrder(t *testing.T) {
	in := New(Options{})
	var order []int
	const n = 40
	for i := 0; i < n; i++ {
		in.track(closeLog{id: i, order: &order})
	}
	in.CutAll()
	if len(order) != n {
		t.Fatalf("CutAll closed %d of %d connections", len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("cut order %v, want the order the connections were opened in", order)
		}
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	in := New(Options{})
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := in.Listener(base)
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	acc := <-done
	if acc == nil {
		t.Fatal("accept failed")
	}
	defer acc.Close()
	if in.Live() != 1 {
		t.Fatalf("accepted connection not tracked: live=%d", in.Live())
	}
	in.CutAll()
	out.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := out.Read(make([]byte, 1)); err == nil {
		t.Fatal("dialer side still connected after CutAll on accepted conn")
	}
}

func TestDeviceRangeFaults(t *testing.T) {
	const bs = 1024
	mem, err := blockdev.NewMem(16 * bs)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(mem, bs)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)

	// No faults armed: passthrough.
	if err := dev.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	dev.FailReads(4, 2) // blocks 4 and 5
	if err := dev.ReadAt(buf, 3*bs); err != nil {
		t.Fatalf("read before range: %v", err)
	}
	if err := dev.ReadAt(buf, 4*bs); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("read in range: got %v, want ErrInjected", err)
	}
	// A read spanning into the range fails too.
	if err := dev.ReadAt(make([]byte, 2*bs), 3*bs); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("spanning read: got %v, want ErrInjected", err)
	}
	if err := dev.ReadAt(buf, 6*bs); err != nil {
		t.Fatalf("read past range: %v", err)
	}
	// Writes are independent of read faults.
	if err := dev.WriteAt(buf, 4*bs); err != nil {
		t.Fatalf("write in read-faulted range: %v", err)
	}

	dev.FailWrites(0, 1)
	if err := dev.WriteAt(buf, 0); !errors.Is(err, blockdev.ErrInjected) {
		t.Fatalf("faulted write: got %v, want ErrInjected", err)
	}
	dev.Heal()
	if err := dev.ReadAt(buf, 4*bs); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if err := dev.WriteAt(buf, 0); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

func TestInvalidDevice(t *testing.T) {
	mem, err := blockdev.NewMem(1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDevice(mem, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
}
