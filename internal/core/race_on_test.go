//go:build race

package core_test

// The race detector changes what allocates, so allocation guards skip
// under -race.
const raceEnabled = true
