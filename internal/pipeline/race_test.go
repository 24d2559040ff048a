//go:build race

package pipeline

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of its Puts on purpose, so allocation budgets do not hold.
const raceEnabled = true
