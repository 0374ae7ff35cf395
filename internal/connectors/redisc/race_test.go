//go:build race

package redisc

// raceEnabled is set under the race detector, where sync.Pool drops a
// random share of Puts and allocation counts say nothing about the code.
const raceEnabled = true
