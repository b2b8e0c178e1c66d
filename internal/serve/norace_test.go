//go:build !race

package serve

// raceEnabled reports whether the race detector is on, which inflates
// every allocation and so every heap measurement.
const raceEnabled = false
