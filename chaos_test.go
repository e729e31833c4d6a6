package searchads_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"searchads"
	"searchads/internal/sweep/sweeptest"
)

// saveBytes crawls nothing itself — it just serializes a dataset the
// same way cmd/crawl does, so byte-level comparisons see exactly what
// lands on disk.
func saveBytes(t *testing.T, ds *searchads.Dataset) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestZeroFaultPlanByteIdentical is the chaos layer's regression guard:
// a study configured with the fault machinery disarmed — profile "off",
// or a real profile at rate 0 — must produce datasets, JSON reports,
// and rendered reports byte-identical to a study that never mentioned
// faults at all.
func TestZeroFaultPlanByteIdentical(t *testing.T) {
	ctx := context.Background()
	base := searchads.Config{
		Seed:             441,
		Engines:          []string{searchads.Bing, searchads.Google},
		QueriesPerEngine: 8,
	}

	plain := searchads.NewStudy(base)
	baseDS, err := plain.Crawl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := saveBytes(t, baseDS)
	baseReport, err := plain.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := baseReport.JSON()
	if err != nil {
		t.Fatal(err)
	}
	baseRender := baseReport.Render()
	if strings.Contains(baseRender, "Crawl loss") {
		t.Fatal("fault-free report renders a crawl-loss section")
	}
	if strings.Contains(string(baseJSON), `"Failures"`) {
		t.Fatal("fault-free report JSON carries a Failures key")
	}

	for _, cfg := range []searchads.Config{
		{FaultProfile: "off"},
		{FaultProfile: "off", FaultRate: 0},
		{FaultProfile: "bot-hostile", FaultRate: 0},
		{FaultProfile: "brownout"}, // rate defaults to 0
	} {
		cfg.Seed = base.Seed
		cfg.Engines = base.Engines
		cfg.QueriesPerEngine = base.QueriesPerEngine
		study := searchads.NewStudy(cfg)
		ds, err := study.Crawl(ctx)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if got := saveBytes(t, ds); !bytes.Equal(got, baseBytes) {
			t.Fatalf("profile=%q rate=%g: dataset bytes differ from the faultless study",
				cfg.FaultProfile, cfg.FaultRate)
		}
		rep, err := study.Analyze(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, baseJSON) {
			t.Fatalf("profile=%q rate=%g: report JSON differs from the faultless study",
				cfg.FaultProfile, cfg.FaultRate)
		}
		if rep.Render() != baseRender {
			t.Fatalf("profile=%q rate=%g: rendered report differs from the faultless study",
				cfg.FaultProfile, cfg.FaultRate)
		}
	}
}

// TestFaultCrawlSequentialParallelByteIdentical is the chaos property
// test: for any (seed, profile, rate), the parallel crawl's dataset is
// byte-identical to the sequential crawl's, and a repeat run reproduces
// it exactly — fault decisions are a pure function of the plan, never
// of scheduling.
func TestFaultCrawlSequentialParallelByteIdentical(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		seed    int64
		profile string
		rate    float64
	}{
		{101, "flaky-edge", 0.3},
		{202, "bot-hostile", 0.25},
		{303, "brownout", 0.2},
	}
	for _, tc := range cases {
		cfg := searchads.Config{
			Seed:             tc.seed,
			Engines:          []string{searchads.Bing, searchads.DuckDuckGo},
			QueriesPerEngine: 6,
			FaultProfile:     tc.profile,
			FaultRate:        tc.rate,
		}
		seqDS, err := searchads.NewStudy(cfg).Crawl(ctx)
		if err != nil {
			t.Fatalf("%s@%g sequential: %v", tc.profile, tc.rate, err)
		}
		seq := saveBytes(t, seqDS)

		par := cfg
		par.Parallel = true
		parDS, err := searchads.NewStudy(par).Crawl(ctx)
		if err != nil {
			t.Fatalf("%s@%g parallel: %v", tc.profile, tc.rate, err)
		}
		if !bytes.Equal(seq, saveBytes(t, parDS)) {
			t.Fatalf("%s@%g: parallel dataset diverges from sequential", tc.profile, tc.rate)
		}

		againDS, err := searchads.NewStudy(cfg).Crawl(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq, saveBytes(t, againDS)) {
			t.Fatalf("%s@%g: repeat crawl diverges", tc.profile, tc.rate)
		}

		// The plan must actually bite at these rates, with typed classes
		// on every failure.
		var failed int
		for _, it := range seqDS.Iterations {
			if it.Error == "" {
				continue
			}
			failed++
			if it.ErrorClass == "" {
				t.Fatalf("%s@%g: failed iteration carries no error class: %s",
					tc.profile, tc.rate, it.Error)
			}
		}
		if failed == 0 {
			t.Fatalf("%s@%g: no iteration failed; injection inert", tc.profile, tc.rate)
		}
	}
}

// TestRetryBackoffVirtualClockOnly: retries, exponential backoff, and
// Retry-After waits are charged to the browser's virtual clock, never
// the wall clock — a heavily degraded crawl whose retry budget adds up
// to minutes of simulated waiting still finishes in real milliseconds,
// and leaks no goroutines.
func TestRetryBackoffVirtualClockOnly(t *testing.T) {
	before := runtime.NumGoroutine()
	start := time.Now()
	ds, err := searchads.NewStudy(searchads.Config{
		Seed:             555,
		Engines:          []string{searchads.Google},
		QueriesPerEngine: 12,
		FaultProfile:     "brownout", // 5xx + 429 + timeout: all the retryable classes
		FaultRate:        0.4,
		Parallel:         true,
	}).Crawl(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	var retries int
	for _, it := range ds.Iterations {
		for _, h := range it.Hops {
			retries += h.Retries
		}
	}
	if retries == 0 {
		t.Fatal("no hop recorded a retry at fault rate 0.4; backoff path untested")
	}
	// retries × (≥500ms backoff, 30s per timeout, 30s Retry-After) is
	// minutes of virtual time; wall time must stay far below it.
	if elapsed > 10*time.Second {
		t.Fatalf("crawl with %d retries took %v wall-clock; backoff is sleeping for real", retries, elapsed)
	}

	leakFree := false
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			leakFree = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !leakFree {
		t.Fatalf("goroutines %d > baseline %d after degraded crawl", runtime.NumGoroutine(), before)
	}
}

// TestFaultFailureCountsInReport: injected failures surface as
// per-engine, per-class counts in the report, identically through the
// sequential fold and the sharded merge, and the counts reconcile with
// the dataset.
func TestFaultFailureCountsInReport(t *testing.T) {
	ctx := context.Background()
	ds, err := searchads.NewStudy(searchads.Config{
		Seed:             606,
		Engines:          []string{searchads.Bing, searchads.Qwant},
		QueriesPerEngine: 10,
		FaultProfile:     "bot-hostile",
		FaultRate:        0.3,
	}).Crawl(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rep := searchads.AnalyzeDataset(ds)
	if len(rep.Failures) == 0 {
		t.Fatal("report carries no failure counts at fault rate 0.3")
	}
	// Reconcile report counts against the dataset records.
	want := make(map[string]map[string]int)
	for _, it := range ds.Iterations {
		if it.Error == "" {
			continue
		}
		if want[it.Engine] == nil {
			want[it.Engine] = make(map[string]int)
		}
		want[it.Engine][it.ErrorClass]++
	}
	for engine, classes := range want {
		for cls, n := range classes {
			if got := rep.Failures[engine][cls]; got != n {
				t.Fatalf("report failures[%s][%s] = %d, dataset has %d", engine, cls, got, n)
			}
		}
	}
	if !strings.Contains(rep.Render(), "Crawl loss") {
		t.Fatal("render omits the crawl-loss section despite failures")
	}

	sharded, err := searchads.AnalyzeDatasetSharded(ctx, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	shardJSON, err := sharded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, shardJSON) {
		t.Fatal("sharded report (with failure counts) diverges from sequential fold")
	}
}

// TestSweepFaultDimensions: fault profile and rate are sweep matrix
// dimensions — cells get distinct scenario names, per-cell failure
// counts, and the whole sweep reproduces byte-for-byte.
func TestSweepFaultDimensions(t *testing.T) {
	ctx := context.Background()
	m := searchads.SweepMatrix{
		EngineSets:       [][]string{{searchads.Bing}},
		QueriesPerEngine: 6,
		Seeds:            []int64{1, 2},
		FaultProfiles:    []string{"bot-hostile"},
		FaultRates:       []float64{0, 0.3},
	}
	run := func() ([]byte, *searchads.SweepResult) {
		res, err := searchads.Sweep(ctx, m, searchads.SweepOptions{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		// The retained-iteration high-water mark is a scheduling
		// observation, not a study result: compare only the
		// deterministic content.
		return sweeptest.DeterministicJSON(t, res), res
	}
	first, res := run()
	second, _ := run()
	if !bytes.Equal(first, second) {
		t.Fatal("fault sweep not reproducible")
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (1 profile × 2 rates × 2 seeds)", len(res.Cells))
	}
	var sawZero, sawFaulty bool
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s seed=%d failed: %s", c.Scenario, c.Seed, c.Err)
		}
		switch {
		case strings.Contains(c.Scenario, "faults=bot-hostile@0.3"):
			sawFaulty = true
			if len(c.FailureClasses) == 0 {
				t.Fatalf("cell %s seed=%d: no failure classes at rate 0.3", c.Scenario, c.Seed)
			}
		case strings.Contains(c.Scenario, "faults=bot-hostile@0"):
			sawZero = true
			if len(c.FailureClasses) != 0 {
				t.Fatalf("cell %s seed=%d: failure classes %v at rate 0", c.Scenario, c.Seed, c.FailureClasses)
			}
		default:
			t.Fatalf("cell scenario %q lacks a fault segment", c.Scenario)
		}
	}
	if !sawZero || !sawFaulty {
		t.Fatalf("rate dimension not expanded: zero=%v faulty=%v", sawZero, sawFaulty)
	}
}

// TestInvalidFaultProfileErrors: an unknown profile or an out-of-range
// rate is a config error surfaced by the first pipeline call — not a
// silent faultless crawl.
func TestInvalidFaultProfileErrors(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []searchads.Config{
		{FaultProfile: "hurricane", FaultRate: 0.1},
		{FaultProfile: "brownout", FaultRate: 1.5},
	} {
		cfg.Seed = 9
		cfg.QueriesPerEngine = 2
		cfg.Engines = []string{searchads.Bing}
		study := searchads.NewStudy(cfg)
		if ds, err := study.Crawl(ctx); err == nil {
			t.Fatalf("%+v: Crawl returned %d iterations, want config error",
				cfg, len(ds.Iterations))
		}
		var streamErr error
		for _, err := range study.Iterations(ctx) {
			streamErr = err
			break
		}
		if streamErr == nil {
			t.Fatalf("profile=%q rate=%g: Iterations yielded no error", cfg.FaultProfile, cfg.FaultRate)
		}
		if _, err := study.Analyze(ctx); err == nil {
			t.Fatalf("profile=%q rate=%g: Analyze succeeded", cfg.FaultProfile, cfg.FaultRate)
		}
	}
}
