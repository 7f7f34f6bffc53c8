//go:build race

package core

// raceEnabled reports that the race detector is on, which makes a training
// run about ten times slower.
const raceEnabled = true
