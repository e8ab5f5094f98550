//go:build !race

package fault

const raceEnabled = false
