//go:build !race

package iqltest

// Race reports whether the race detector is compiled in.
const Race = false
