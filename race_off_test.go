//go:build !race

package staircase

const raceEnabled = false
