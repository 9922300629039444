//go:build !race

package protocol

// raceEnabled reports a -race build; see race_on_test.go.
const raceEnabled = false
