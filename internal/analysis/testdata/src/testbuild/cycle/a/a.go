// Package a's in-package test imports b, which imports a: go test
// refuses this ("import cycle not allowed in test").
package a

type Options struct{ N int }
