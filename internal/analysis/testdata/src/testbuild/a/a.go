// Package a's in-package test imports b, and b's imports a: the shape
// of opt and view since PR 20, which go test builds without a cycle.
package a

type Options struct{ N int }
