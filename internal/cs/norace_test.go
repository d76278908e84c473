//go:build !race

package cs

const raceEnabled = false
