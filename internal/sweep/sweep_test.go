package sweep_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"searchads"
	"searchads/internal/analysis"
	"searchads/internal/storage"
	"searchads/internal/sweep"
	"searchads/internal/sweep/sweeptest"
)

// studyConfig maps a sweep cell back to the standalone searchads.Config
// it must reproduce byte-identically.
func studyConfig(c sweep.Cell) searchads.Config {
	cfg := searchads.Config{
		Seed:             c.Seed,
		Engines:          c.Engines,
		QueriesPerEngine: c.QueriesPerEngine,
		Iterations:       c.Iterations,
		Storage:          c.Storage,
		NoStealth:        c.NoStealth,
		SkipRevisit:      c.SkipRevisit,
	}
	if c.FilterAnnotate {
		cfg.Filter = searchads.DefaultFilterEngine()
	}
	return cfg
}

// TestSweepCellByteIdenticalToStandaloneStudy is the reproducibility
// acceptance check: every cell's report — captured while streaming,
// before its dataset is discarded — must match, byte for byte, the
// report of running that cell's configuration as a standalone Study.
func TestSweepCellByteIdenticalToStandaloneStudy(t *testing.T) {
	m := sweep.Matrix{
		Seeds:            []int64{11, 12},
		Storage:          []storage.Mode{storage.Flat, storage.Partitioned},
		FilterAnnotate:   []bool{true},
		EngineSets:       [][]string{{"bing", "duckduckgo"}},
		QueriesPerEngine: 6,
	}
	type captured struct {
		cell     sweep.Cell
		rendered []byte
		asJSON   []byte
	}
	var got []captured
	res, err := searchads.Sweep(context.Background(), m, searchads.SweepOptions{
		Parallel: 2,
		OnReport: func(c sweep.Cell, rep *analysis.Report) {
			j, err := rep.JSON()
			if err != nil {
				t.Errorf("report JSON: %v", err)
			}
			got = append(got, captured{cell: c, rendered: []byte(rep.Render()), asJSON: j})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || len(res.Cells) != 4 {
		t.Fatalf("captured %d reports over %d cells, want 4", len(got), len(res.Cells))
	}
	for _, cap := range got {
		study := searchads.NewStudy(studyConfig(cap.cell))
		rep, err := study.Analyze(context.Background())
		if err != nil {
			t.Fatalf("standalone study %s seed=%d: %v", cap.cell.Scenario, cap.cell.Seed, err)
		}
		if !bytes.Equal(cap.rendered, []byte(rep.Render())) {
			t.Errorf("cell %s seed=%d: rendered report differs from standalone study",
				cap.cell.Scenario, cap.cell.Seed)
		}
		j, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cap.asJSON, j) {
			t.Errorf("cell %s seed=%d: JSON report differs from standalone study",
				cap.cell.Scenario, cap.cell.Seed)
		}
	}
}

// TestSweepMemoryBounded asserts the O(parallelism · iteration)
// retention claim: the high-water mark of simultaneously retained
// crawl iterations tracks the pool width, not the cell count — and
// no cell ever holds a dataset at all.
func TestSweepMemoryBounded(t *testing.T) {
	m := sweep.Matrix{
		Seeds:            []int64{1, 2, 3, 4, 5, 6, 7, 8},
		EngineSets:       [][]string{{"bing"}},
		QueriesPerEngine: 3,
		SkipRevisit:      true,
	}
	res, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	if res.PeakRetainedIterations < 1 || res.PeakRetainedIterations > 2 {
		t.Fatalf("peak retained iterations = %d, want within [1, parallelism=2] on an 8-cell sweep",
			res.PeakRetainedIterations)
	}
	if res.Parallelism != 2 {
		t.Fatalf("parallelism = %d, want 2", res.Parallelism)
	}
}

// TestSweepAggregates checks the cross-seed statistics and streamed
// iteration counters on a real two-scenario sweep.
func TestSweepAggregates(t *testing.T) {
	m := sweep.Matrix{
		Seeds:            []int64{21, 22, 23},
		Storage:          []storage.Mode{storage.Flat, storage.Partitioned},
		EngineSets:       [][]string{{"bing", "google"}},
		QueriesPerEngine: 5,
		SkipRevisit:      true,
	}
	var progress int
	res, err := sweep.Run(context.Background(), m, sweep.Options{
		Parallel: 3,
		OnCellDone: func(done, total int, c sweep.Cell, err error) {
			progress++
			if total != 6 || err != nil {
				t.Errorf("OnCellDone(done=%d, total=%d, err=%v)", done, total, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if progress != 6 {
		t.Fatalf("OnCellDone fired %d times, want 6", progress)
	}
	if len(res.Scenarios) != 2 {
		t.Fatalf("scenarios = %d, want 2", len(res.Scenarios))
	}
	for _, cr := range res.Cells {
		if cr.Iterations != 10 {
			t.Errorf("cell %s seed=%d streamed %d iterations, want 10", cr.Scenario, cr.Seed, cr.Iterations)
		}
	}
	for _, sa := range res.Scenarios {
		if sa.Cells != 3 {
			t.Fatalf("scenario %s aggregated %d cells, want 3", sa.Scenario, sa.Cells)
		}
		if len(sa.Engines) != 2 || sa.Engines[0].Engine != "bing" || sa.Engines[1].Engine != "google" {
			t.Fatalf("scenario %s engines = %+v", sa.Scenario, sa.Engines)
		}
		for _, ea := range sa.Engines {
			a, ok := ea.Metrics[analysis.MetricTrackerPrevalence]
			if !ok {
				t.Fatalf("scenario %s missing tracker prevalence", sa.Scenario)
			}
			if a.N != 3 || a.Mean < a.Min || a.Mean > a.Max || a.CI95Low > a.Mean || a.CI95High < a.Mean {
				t.Errorf("inconsistent aggregate %+v", a)
			}
			if a.Mean == 0 {
				t.Errorf("scenario %s %s tracker prevalence is zero across all seeds", sa.Scenario, ea.Engine)
			}
		}
	}

	// The result must round-trip to JSON and render without error, and
	// a re-run of the same matrix must be byte-deterministic
	// regardless of worker scheduling.
	j1, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(j1), `"ci95_low"`) || !strings.Contains(string(j1), `"tracker_prevalence"`) {
		t.Error("JSON output missing CI or metric fields")
	}
	res2, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pool-shape fields legitimately differ between the two runs; the
	// measurement content must not.
	if !bytes.Equal(sweeptest.DeterministicJSON(t, res), sweeptest.DeterministicJSON(t, res2)) {
		t.Error("sweep result differs between parallel=3 and parallel=1 runs")
	}
	if out := res.Render(); !strings.Contains(out, "tracker_prevalence") || !strings.Contains(out, "2 scenarios") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

// TestSweepCellErrors: a cell that cannot crawl (unknown engine) marks
// its CellResult, is excluded from aggregation, and surfaces in the
// returned error — the contract cmd/sweep's non-zero exit relies on.
func TestSweepCellErrors(t *testing.T) {
	m := sweep.Matrix{
		Seeds:            []int64{1, 2},
		EngineSets:       [][]string{{"bing"}, {"altavista"}},
		QueriesPerEngine: 3,
		SkipRevisit:      true,
	}
	res, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err == nil {
		t.Fatal("sweep with an unknown engine returned nil error")
	}
	if !strings.Contains(err.Error(), "altavista") {
		t.Errorf("error %v does not name the bad engine", err)
	}
	if res.CellErrors != 2 {
		t.Fatalf("cell errors = %d, want 2", res.CellErrors)
	}
	good := res.Aggregate("storage=flat,filter=off,stealth=on,engines=bing")
	bad := res.Aggregate("storage=flat,filter=off,stealth=on,engines=altavista")
	if good == nil || good.Cells != 2 {
		t.Fatalf("good scenario aggregate = %+v", good)
	}
	if bad == nil || bad.Cells != 0 || len(bad.Engines) != 0 {
		t.Fatalf("failed scenario aggregate = %+v", bad)
	}
}

// TestSweepPresetFacade runs the smallest real preset sweep through
// the public facade, the same path cmd/sweep takes.
func TestSweepPresetFacade(t *testing.T) {
	m, err := searchads.SweepPreset("adblock-user")
	if err != nil {
		t.Fatal(err)
	}
	m = m.Overlay(searchads.SweepMatrix{
		Seeds:            []int64{31, 32},
		EngineSets:       [][]string{{"duckduckgo"}},
		QueriesPerEngine: 4,
		SkipRevisit:      true,
	})
	res, err := searchads.Sweep(context.Background(), m, searchads.SweepOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || res.CellErrors != 0 {
		t.Fatalf("result = %+v", res)
	}
	sa := res.Scenarios[0]
	if !strings.Contains(sa.Scenario, "filter=on") {
		t.Fatalf("adblock-user scenario = %q", sa.Scenario)
	}
	a := sa.Engines[0].Metrics[analysis.MetricBlockedFraction]
	if a.N != 2 || a.Mean == 0 {
		t.Fatalf("blocked fraction aggregate = %+v (filter lists matched nothing?)", a)
	}
}
