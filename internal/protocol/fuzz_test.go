package protocol

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeStored feeds arbitrary bytes to the stored-record parser,
// which every packet a disk or a cache holds passes through on its way to
// a viewer or a replica: either the record is refused with ErrBadPacket,
// or it names the data or the control channel and its payload is the rest
// of the record, aliased and not copied; never a panic. And the same bytes
// as a payload round-trip: PutStored frames them into what DecodeStored
// splits back into the channel and the payload, and EncodeStored frames
// the same bytes in a fresh buffer.
func FuzzDecodeStored(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{byte(Data)}, false)
	f.Add(EncodeStored(Data, []byte("payload")), true)
	f.Add(EncodeStored(Control, []byte{0, 1}), false)
	f.Add([]byte{7, 1, 2}, true)

	f.Fuzz(func(t *testing.T, rec []byte, ctrl bool) {
		ch, payload, err := DecodeStored(rec)
		switch {
		case err != nil:
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("DecodeStored(%x) = %v, want ErrBadPacket", rec, err)
			}
		case ch != Data && ch != Control:
			t.Fatalf("DecodeStored(%x) took channel %d", rec, ch)
		case len(payload) != len(rec)-1 || len(payload) > 0 && &payload[0] != &rec[1]:
			t.Fatalf("DecodeStored(%x) gave a payload of %d bytes that is not the record past its tag", rec, len(payload))
		}

		want := Data
		if ctrl {
			want = Control
		}
		framed := make([]byte, 1+len(rec))
		PutStored(framed, want, rec)
		if ch, payload, err := DecodeStored(framed); err != nil || ch != want || !bytes.Equal(payload, rec) {
			t.Fatalf("PutStored(%v, %x) decodes to %v, %x, %v", want, rec, ch, payload, err)
		}
		if enc := EncodeStored(want, rec); !bytes.Equal(enc, framed) {
			t.Fatalf("EncodeStored(%v, %x) = %x, PutStored framed %x", want, rec, enc, framed)
		}
	})
}
