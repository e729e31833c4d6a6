// Package testenv describes the build a test runs in. Allocation gates
// consult it: under -race, sync.Pool drops a random share of the
// objects put back, so allocation counts stop being exact.
package testenv
