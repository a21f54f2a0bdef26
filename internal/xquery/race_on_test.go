//go:build race

package xquery

const raceEnabled = true
