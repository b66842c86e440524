//go:build race

package calliope

// raceEnabled reports a -race build, whose detector allocates on its own
// account, so an allocation count is not pinned under it.
const raceEnabled = true
