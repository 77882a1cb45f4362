//go:build race

package iqltest

// Race reports whether the race detector is compiled in. It allocates
// for its own bookkeeping and makes sync.Pool drop a share of what it
// is given, so a test that pins bytes allocated logs them under it
// and asserts nothing.
const Race = true
