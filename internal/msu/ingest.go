package msu

import (
	"bytes"
	"fmt"
	"strconv"

	"calliope/internal/media"
	"calliope/internal/msufs"
	"calliope/internal/protocol"
)

// This file holds the offline administration path: loading synthetic
// or pre-filtered content directly into a volume before an MSU serves
// it. The paper's fast-forward/backward files are produced exactly
// this way — "an administrator has to produce the fast forward and
// fast backward versions of the content" (§2.3.1) — and an
// "administrative interface is used to load [them] into the server".

// Ingest writes a packet stream into vol as content named name with
// the given content type. Packets must be in delivery-time order.
func Ingest(vol msufs.Store, name, contentType string, pkts []media.Packet) error {
	set := &fileSet{store: vol}
	err := set.ingest(name, contentType, pkts, nil)
	if err != nil {
		set.abort() //nolint:errcheck // the ingest error is the one to report
	}
	return err
}

// ingest writes and publishes one file; the caller aborts the set on error.
func (s *fileSet) ingest(name, contentType string, pkts []media.Packet, extra map[string]string) error {
	var bytes int64
	for _, p := range pkts {
		bytes += int64(len(p.Payload)) + 32
	}
	w, err := s.packets(name, bytes)
	if err != nil {
		return err
	}
	for i, p := range pkts {
		if err := w.append(p.Time, protocol.Data, p.Payload); err != nil {
			return fmt.Errorf("msu: ingest %q packet %d: %w", name, i, err)
		}
	}
	if _, err = w.publish(contentType, extra); err != nil {
		return fmt.Errorf("msu: ingest %q: %w", name, err)
	}
	return nil
}

// IngestFast produces and loads the fast-forward and fast-backward
// companion files for already-ingested content packets, linking them
// to the normal-rate item so VCR speed switches find them. A companion
// is published as one, and the links are one write on the title.
func IngestFast(vol msufs.Store, name, contentType string, pkts []media.Packet, every int) error {
	if every <= 0 {
		every = media.DefaultFilterEvery
	}
	if _, err := vol.Stat(name); err != nil {
		return fmt.Errorf("msu: fast companions for unknown content %q: %w", name, err)
	}
	ff, err := media.FilterFast(pkts, every, false)
	if err != nil {
		return fmt.Errorf("msu: filtering %q forward: %w", name, err)
	}
	fb, err := media.FilterFast(pkts, every, true)
	if err != nil {
		return fmt.Errorf("msu: filtering %q backward: %w", name, err)
	}
	ffName, fbName := name+".ff", name+".fb"
	companion := map[string]string{AttrFastRole: "companion"}
	set := &fileSet{store: vol}
	if err = set.ingest(ffName, contentType, ff, companion); err == nil {
		err = set.ingest(fbName, contentType, fb, companion)
	}
	if err == nil {
		err = vol.SetAttrs(name, map[string]string{AttrFastFwd: ffName, AttrFastBack: fbName, AttrEvery: strconv.Itoa(every)})
	}
	if err != nil {
		set.abort() //nolint:errcheck // the ingest error is the one to report
	}
	return err
}

// ReadBack scans ingested or recorded content into memory — the
// offline half of the fast-scan filter pipeline (read the recorded
// stream, filter, re-load) and a convenient test hook. It reads through
// the page cursor the play path cuts pages with, and refuses a record
// that play would refuse.
func ReadBack(vol msufs.Store, name string) ([]media.Packet, error) {
	file, err := vol.Open(name)
	if err != nil {
		return nil, err
	}
	tree, err := treeFromAttrs(file, file.Attrs(), vol.BlockSize())
	if err != nil {
		return nil, err
	}
	cur, err := tree.PageCursorAt(0)
	if err != nil {
		return nil, err
	}
	page := make([]byte, tree.PageSize())
	var out []media.Packet
	for {
		ok, err := cur.LoadPage(page)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		for {
			span, ok, err := cur.Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			ch, payload, err := protocol.DecodeStored(page[span.Start : span.Start+span.Len])
			if err != nil {
				return nil, err
			}
			if ch != protocol.Data {
				continue // control traffic is not media
			}
			out = append(out, media.Packet{Time: span.Time, Payload: bytes.Clone(payload)})
		}
	}
}
