//go:build race

package server

// raceEnabled is true in a -race build, where sync.Pool deliberately drops a
// random share of its puts.
const raceEnabled = true
