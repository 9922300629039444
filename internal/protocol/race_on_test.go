//go:build race

package protocol

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so allocation counts mean nothing under it.
const raceEnabled = true
