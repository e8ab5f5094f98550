//go:build race

package store

// The race detector changes what allocates, so allocation guards skip
// under -race.
const raceEnabled = true
