//go:build race

package fault

// The race detector makes sync.Pool drop a share of Puts on purpose, so
// allocation guards over pooled state skip under -race.
const raceEnabled = true
