// Package sweeptest holds the helper tests use to compare sweep results.
package sweeptest

import (
	"testing"

	"searchads/internal/sweep"
)

// DeterministicJSON returns res's JSON with its two run-time
// observations, Parallelism and PeakRetainedIterations, zeroed. What is
// left is what a sweep's byte-identity guarantee covers: two sweeps of
// one matrix agree on it byte for byte whatever their pool width,
// scheduling, telemetry, analysis sharding or resume history.
func DeterministicJSON(tb testing.TB, res *sweep.Result) []byte {
	tb.Helper()
	c := *res
	c.Parallelism, c.PeakRetainedIterations = 0, 0
	data, err := c.JSON()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
