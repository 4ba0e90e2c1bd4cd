//go:build race

package peer

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
