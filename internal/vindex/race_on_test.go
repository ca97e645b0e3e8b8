//go:build race

package vindex

const raceEnabled = true
