//go:build race

package service

// raceEnabled reports a -race build, whose sync.Pool randomly drops
// entries and so changes allocation counts.
const raceEnabled = true
