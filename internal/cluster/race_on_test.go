//go:build race

package cluster

// The race detector changes what allocates, so allocation guards skip
// under -race.
const raceEnabled = true
