//go:build !race

package acoustic

const raceEnabled = false
