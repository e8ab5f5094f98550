//go:build race

package service

// The race detector changes what allocates, so allocation guards skip
// under -race.
const raceEnabled = true
