//go:build race

package xmltree_test

const raceEnabled = true
