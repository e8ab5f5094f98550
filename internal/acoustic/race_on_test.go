//go:build race

package acoustic

// The race detector makes sync.Pool drop a share of Puts on purpose, so
// allocation guards over pooled scratch skip under -race.
const raceEnabled = true
