package admindb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Journal framing: every record is
//
//	u32 little-endian payload length
//	u32 little-endian IEEE CRC-32 of the payload
//	payload (JSON-encoded Mutation)
//
// A record is committed iff its whole frame is on disk and the CRC
// matches. Replay stops at the first frame that fails either test —
// a crash-truncated tail, a torn write, or bit rot — and reports the
// offset of the last good record so the store can truncate the damage
// away and keep appending.

const (
	journalHeaderSize = 8
	// maxRecordSize bounds a single record so a corrupted length field
	// cannot make replay attempt a multi-gigabyte allocation.
	maxRecordSize = 16 << 20
)

// appendFrame encodes one mutation onto buf in journal framing.
func appendFrame(buf []byte, m Mutation) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return buf, fmt.Errorf("admindb: encoding journal record: %w", err)
	}
	var hdr [journalHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// replayJournal applies every intact record in data to t, in order,
// and returns the offset just past the last good record plus the
// number of records applied. Damage (truncation, bad CRC, undecodable
// payload) ends the replay at the preceding record — everything
// committed before the damage survives.
func replayJournal(data []byte, t *tables) (good int64, records int) {
	off := 0
	for {
		if len(data)-off < journalHeaderSize {
			return int64(off), records // truncated mid-header (or clean end)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n <= 0 || n > maxRecordSize || len(data)-off-journalHeaderSize < n {
			return int64(off), records // corrupt length or truncated payload
		}
		payload := data[off+journalHeaderSize : off+journalHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return int64(off), records // torn write or bit rot
		}
		var m Mutation
		if err := json.Unmarshal(payload, &m); err != nil {
			return int64(off), records
		}
		t.apply(m)
		off += journalHeaderSize + n
		records++
	}
}
