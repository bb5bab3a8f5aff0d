//go:build !race

package memnet

// raceEnabled reports that this test binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
