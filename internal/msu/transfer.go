package msu

import (
	"fmt"
	"net"
	"time"

	"calliope/internal/msufs"
	"calliope/internal/replicate"
)

// The source side of MSU-to-MSU replication (internal/replicate): a
// dedicated TCP transfer listener accepts pull requests from peer MSUs
// and streams committed content files block by block. Reads ride the
// per-volume I/O schedulers with a deadline transferReadLag behind now,
// so in the deadline-banded C-SCAN service every live stream's read
// sorts ahead of the copy — the copy consumes idle disk time only
// (bounded by the scheduler's staleness guarantee, so it still makes
// progress under sustained load).

// transferReadLag is how far behind "now" a replication read's deadline
// sits. Live delivery deadlines run at most a few pages ahead of now,
// so this keeps copies strictly less urgent than any play.
const transferReadLag = 500 * time.Millisecond

// transferRequestTimeout bounds how long an accepted transfer
// connection may idle before sending its request.
const transferRequestTimeout = 10 * time.Second

// startTransferListener opens the replication transfer port and its
// accept loop. Callers hold no locks.
func (m *MSU) startTransferListener() error {
	listen := m.cfg.Listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen("tcp", net.JoinHostPort(m.cfg.Host, "0"))
	if err != nil {
		return fmt.Errorf("msu: transfer listener: %w", err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		ln.Close() //nolint:errcheck // already shutting down
		return nil
	}
	m.transferLn = ln
	m.wg.Add(1)
	m.mu.Unlock()
	go m.acceptTransfers(ln)
	return nil
}

// acceptTransfers serves inbound copy-out requests until the listener
// closes.
func (m *MSU) acceptTransfers(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Close
		}
		if !m.trackConn(conn) {
			conn.Close() //nolint:errcheck // shutting down
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer m.untrackConn(conn)
			if err := m.serveTransfer(conn); err != nil {
				m.logf("transfer: %v", err)
			}
		}()
	}
}

// trackConn registers a live transfer connection so Close can sever it;
// false means the MSU is already shutting down.
func (m *MSU) trackConn(conn net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if m.transferConns == nil {
		m.transferConns = make(map[net.Conn]struct{})
	}
	m.transferConns[conn] = struct{}{}
	return true
}

func (m *MSU) untrackConn(conn net.Conn) {
	conn.Close() //nolint:errcheck // double-close on the abort path is fine
	m.mu.Lock()
	delete(m.transferConns, conn)
	m.mu.Unlock()
}

// serveTransfer answers one pull: read the request, resolve the content
// to its committed files (main plus fast-scan companions), and stream
// them from the requested resume offsets.
func (m *MSU) serveTransfer(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(transferRequestTimeout)) //nolint:errcheck // best effort
	req, err := replicate.ReadRequest(conn)
	if err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // best effort
	files, err := m.sourceFiles(req.Content)
	if err != nil {
		return err
	}
	m.logf("transfer: serving %q to %s", req.Content, conn.RemoteAddr())
	pace := ratePacer(req.Rate)
	// The pace hook sees every chunk leave; piggyback the copy-out byte
	// counter on it rather than wrapping the connection.
	counted := func(n int) {
		m.obs.transferOut.Add(int64(n))
		if pace != nil {
			pace(n)
		}
	}
	if err := replicate.Serve(conn, files, req, replicate.ServeOptions{Pace: counted}); err != nil {
		return fmt.Errorf("serving %q: %w", req.Content, err)
	}
	return nil
}

// sourceFiles resolves a committed content item to the transfer file
// set: the main file first, then any fast-forward/backward companions,
// each read through the volume's I/O scheduler at background priority.
func (m *MSU) sourceFiles(content string) ([]replicate.SourceFile, error) {
	for _, store := range m.stores {
		st, err := store.Stat(content)
		if err != nil || contentType(st) == "" {
			continue // absent here, or not (yet) content
		}
		var files []replicate.SourceFile
		for _, name := range itemFiles(st) {
			f, err := store.Open(name)
			if err != nil {
				return nil, fmt.Errorf("transfer: open %q: %w", name, err)
			}
			files = append(files, m.sourceFile(store.BlockSize(), f))
		}
		return files, nil
	}
	return nil, fmt.Errorf("transfer: no committed %q here", content)
}

// sourceFile adapts one store file for the copy engine. Blocks for a
// committed file is exactly the count holding Size bytes.
func (m *MSU) sourceFile(blockSize int, f msufs.StoreFile) replicate.SourceFile {
	size := f.Size()
	blocks := (size + int64(blockSize) - 1) / int64(blockSize)
	return replicate.SourceFile{
		Name:      f.Name(),
		Size:      size,
		Blocks:    blocks,
		BlockSize: blockSize,
		Attrs:     f.Attrs(),
		ReadBlock: func(i int64, p []byte) (int, error) {
			n := f.BlockLen(i)
			if n <= 0 {
				return 0, fmt.Errorf("block %d out of range", i)
			}
			return n, m.readBlock(f, i, p[:blockSize], time.Now().Add(transferReadLag))
		},
	}
}

// ratePacer returns a Pace hook holding the transfer at rate bits/s: it
// tracks where the send clock should be and sleeps off any lead. A
// stall (scheduler wait, TCP backpressure) is forgiven rather than
// banked, so the copy never bursts past its grant to catch up.
func ratePacer(rate int64) func(int) {
	if rate <= 0 {
		return nil
	}
	next := time.Now()
	return func(n int) {
		next = next.Add(time.Duration(float64(n*8) / float64(rate) * float64(time.Second)))
		now := time.Now()
		if next.Before(now) {
			next = now
			return
		}
		time.Sleep(next.Sub(now))
	}
}
