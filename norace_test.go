//go:build !race

package gcplus

// raceEnabled reports whether the race detector is built in.
const raceEnabled = false
