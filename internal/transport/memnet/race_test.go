//go:build race

package memnet

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a share of what is put back —
// allocation bounds that lean on a pool are meaningless there.
const raceEnabled = true
