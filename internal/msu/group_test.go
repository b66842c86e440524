package msu

import (
	"testing"
	"time"

	"calliope/internal/wire"
)

// TestQuitIsAcknowledged plays and quits 2,000 times against one MSU
// (run it under -race): the acknowledgement of a quit is on the wire
// before the teardown it starts closes the connection, every time.
func TestQuitIsAcknowledged(t *testing.T) {
	r := newVCRRig(t)
	ingestMovie(t, r.m.stores[0], "movie", 2*time.Second, 30)
	cycles := 2000
	if testing.Short() {
		cycles = 200
	}
	for i := 0; i < cycles; i++ {
		p := r.play("movie")
		err := p.Call(wire.TypeVCR, wire.VCR{Op: "quit"}, &wire.VCRAck{})
		p.Close() //nolint:errcheck // the MSU closes its end too
		if err != nil {
			t.Fatalf("cycle %d: quit: %v", i, err)
		}
	}
}
