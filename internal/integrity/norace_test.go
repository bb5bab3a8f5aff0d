//go:build !race

package integrity

// raceEnabled reports that this test binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
