//go:build !race

// Package buildtags declares one constant in two files that build
// constraints make mutually exclusive; a loader that ignores the
// constraints sees a redeclaration.
package buildtags

const raceEnabled = false
