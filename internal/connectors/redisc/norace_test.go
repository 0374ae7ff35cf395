//go:build !race

package redisc

const raceEnabled = false
