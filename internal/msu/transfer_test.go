package msu

import (
	"testing"
	"time"
)

// TestReplicateRatePacer: the transfer pacer holds a copy at its
// granted rate — replication rides idle bandwidth and must never
// burst past the Coordinator's grant (DESIGN.md §3h).
func TestReplicateRatePacer(t *testing.T) {
	pace := ratePacer(1000 * 1000) // 1 Mbit/s grant
	start := time.Now()
	for i := 0; i < 8; i++ {
		pace(8 * 1024) // 64 KB total → ~524 ms at 1 Mbit/s
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("64 KB paced at 1 Mbit/s took only %v", elapsed)
	}

	if ratePacer(0) != nil {
		t.Fatal("zero rate must disable pacing")
	}

	// A stall is forgiven, not banked: after a long gap the pacer must
	// not let the next writes burst to "catch up".
	pace = ratePacer(1000 * 1000)
	pace(8 * 1024)
	time.Sleep(300 * time.Millisecond) // the stall model: a scheduler that stops pacing for 300 ms
	start = time.Now()
	for i := 0; i < 4; i++ {
		pace(8 * 1024) // 32 KB → ~262 ms at the grant
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("post-stall writes burst through in %v", elapsed)
	}
}
