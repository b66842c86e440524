//go:build race

package wire

// raceEnabled reports a -race build, whose detector allocates on its own
// account, so an allocation count is not pinned under it.
const raceEnabled = true
