//go:build !race

package fleet

// raceEnabled reports whether the race detector is on, which changes how
// much a sync.Pool retains.
const raceEnabled = false
