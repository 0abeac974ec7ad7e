//go:build !race

package oltp

const raceEnabled = false
