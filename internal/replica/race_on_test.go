//go:build race

package replica

// The race detector changes what allocates, so allocation guards skip
// under -race.
const raceEnabled = true
