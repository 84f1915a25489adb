//go:build race

package engine

// raceEnabled reports whether the tests run under the race detector,
// which slows the byte-by-byte truncation loop about tenfold.
const raceEnabled = true
