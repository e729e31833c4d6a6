package analysis

import (
	"testing"

	"searchads/internal/testenv"
)

// Allocation budgets for the §3.2/§4 fold over the shared 60-query
// test dataset (300 iterations). Map growth under Go's random per-map
// hash seeds moves the fold's count by a few allocations from run to
// run: 180 measured folds spanned 6,888–6,894, so the budget is that
// maximum plus the spread. A warm Report measured 148 in every run.
const (
	foldAllocBudget   = 6894 + 6
	reportAllocBudget = 148
)

// TestFoldAllocs gates the allocations of folding the shared dataset
// into a fresh Accumulator and of one Report over it. Both are skipped
// under -race, whose instrumentation adds about 25 allocations to the
// fold and an occasional two to Report.
func TestFoldAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	_, ds := report(t)
	var acc *Accumulator
	fold := func() { acc = foldShared(t) }
	if got := testing.AllocsPerRun(5, fold); got > foldAllocBudget {
		t.Errorf("fold of %d iterations allocates %v times, budget %d", len(ds.Iterations), got, foldAllocBudget)
	}
	if got := testing.AllocsPerRun(10, func() { acc.Report() }); got > reportAllocBudget {
		t.Errorf("Report allocates %v times, budget %d", got, reportAllocBudget)
	}
}

// foldShared folds the shared dataset into a fresh accumulator.
func foldShared(tb testing.TB) *Accumulator {
	_, ds := report(tb)
	acc := NewAccumulator(Options{})
	for _, it := range ds.Iterations {
		acc.Add(it)
	}
	return acc
}

// BenchmarkFoldAdd is the fold row of the per-layer table: the shared
// dataset folded into a fresh Accumulator per op.
func BenchmarkFoldAdd(b *testing.B) {
	foldShared(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foldShared(b)
	}
}

// BenchmarkFoldReport is the Report row: one warm Report over the
// folded shared dataset per op.
func BenchmarkFoldReport(b *testing.B) {
	acc := foldShared(b)
	acc.Report()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Report()
	}
}
