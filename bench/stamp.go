package main

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"calliope/internal/media"
	"calliope/internal/units"
)

// Self-describing content. Every packet the bench ingests or records
// carries a stamp, so the receiver can tell on its own which title a
// datagram belongs to, where in the title it sits, when the title's
// schedule wants it delivered, and whether the bytes survived:
//
//	[0:4]   magic
//	[4:8]   title id
//	[8:12]  sequence number within the title
//	[12:20] scheduled delivery offset from the title's start, ns
//	[20:n-4] filler derived from (title, seq)
//	[n-4:n] CRC-32 of everything before it
const (
	stampMagic  = 0xCA11B0B5
	stampHdrLen = 20
	minStampLen = stampHdrLen + 4
)

// stamp is the decoded header of one packet.
type stamp struct {
	title uint32
	seq   uint32
	off   time.Duration
}

// stampPacket fills buf (at least minStampLen bytes) with a stamped
// packet.
func stampPacket(buf []byte, s stamp) {
	binary.BigEndian.PutUint32(buf[0:4], stampMagic)
	binary.BigEndian.PutUint32(buf[4:8], s.title)
	binary.BigEndian.PutUint32(buf[8:12], s.seq)
	binary.BigEndian.PutUint64(buf[12:20], uint64(s.off))
	body := buf[stampHdrLen : len(buf)-4]
	// xorshift filler: cheap, and different for every packet, so a
	// payload delivered under the wrong header fails its checksum.
	x := uint64(s.title)<<32 | uint64(s.seq) | 1<<63
	for len(body) >= 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(body, x)
		body = body[8:]
	}
	for i := range body {
		body[i] = byte(x >> (8 * i))
	}
	binary.BigEndian.PutUint32(buf[len(buf)-4:], crc32.ChecksumIEEE(buf[:len(buf)-4]))
}

// readStamp decodes and verifies a packet. ok is false when the packet
// is too short, carries no stamp, or fails its checksum.
func readStamp(p []byte) (s stamp, ok bool) {
	if len(p) < minStampLen || binary.BigEndian.Uint32(p[0:4]) != stampMagic {
		return stamp{}, false
	}
	if binary.BigEndian.Uint32(p[len(p)-4:]) != crc32.ChecksumIEEE(p[:len(p)-4]) {
		return stamp{}, false
	}
	return stamp{
		title: binary.BigEndian.Uint32(p[4:8]),
		seq:   binary.BigEndian.Uint32(p[8:12]),
		off:   time.Duration(binary.BigEndian.Uint64(p[12:20])),
	}, true
}

// title describes one generated content item.
type title struct {
	id      uint32
	name    string
	ctype   string // content-type name
	rate    units.BitRate
	pktSize int
	length  time.Duration
}

// interval is the schedule distance between consecutive packets.
func (t title) interval() time.Duration {
	return t.rate.Duration(units.ByteSize(t.pktSize))
}

// packets reports how many packets the title holds.
func (t title) packets() int {
	n := int(t.length / t.interval())
	if n < 1 {
		n = 1
	}
	return n
}

// offsetOf is packet seq's scheduled delivery offset.
func (t title) offsetOf(seq int) time.Duration {
	return time.Duration(seq) * t.interval()
}

// generate builds the title's stamped constant-rate packet stream. All
// payloads share one backing array.
func (t title) generate() []media.Packet {
	n := t.packets()
	backing := make([]byte, n*t.pktSize)
	pkts := make([]media.Packet, n)
	for i := range pkts {
		buf := backing[i*t.pktSize : (i+1)*t.pktSize]
		off := t.offsetOf(i)
		stampPacket(buf, stamp{title: t.id, seq: uint32(i), off: off})
		pkts[i] = media.Packet{Time: off, Payload: buf}
	}
	return pkts
}
