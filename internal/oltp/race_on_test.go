//go:build race

package oltp

// raceEnabled: the race detector allocates on its own account, so
// allocation counts mean nothing under it.
const raceEnabled = true
