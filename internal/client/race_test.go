//go:build race

package client

// raceEnabled reports a -race build, whose allocation counts are not the
// ones a production binary makes.
const raceEnabled = true
