//go:build race

package agent

// raceEnabled reports that this test binary was built with the race
// detector, under which wall-clock cost ratios mean nothing; see
// TestWriteDatagramCostFlat.
const raceEnabled = true
