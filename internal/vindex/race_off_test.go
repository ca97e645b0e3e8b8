//go:build !race

package vindex

const raceEnabled = false
