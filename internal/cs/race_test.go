//go:build race

package cs

// raceEnabled reports a -race build, whose allocation counts are not the
// ones a production binary makes.
const raceEnabled = true
