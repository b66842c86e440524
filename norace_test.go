//go:build !race

package calliope

const raceEnabled = false
