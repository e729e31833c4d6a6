package searchads_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"searchads"
	"searchads/internal/sweep/sweeptest"
)

// TestZeroAdversaryByteIdentical is the arms-race layer's regression
// guard: naming the "off" posture and the "off" countermeasure bundle —
// alone or on top of an armed i.i.d. fault plan — must change no output
// byte versus a study that never mentioned the adversary at all.
func TestZeroAdversaryByteIdentical(t *testing.T) {
	ctx := context.Background()
	bases := []searchads.Config{
		{Seed: 441, Engines: []string{searchads.Bing, searchads.Google}, QueriesPerEngine: 8},
		{Seed: 442, Engines: []string{searchads.Bing}, QueriesPerEngine: 8,
			FaultProfile: "bot-hostile", FaultRate: 0.1},
	}
	for _, base := range bases {
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
		if strings.Contains(baseReport.Render(), "Arms race") {
			t.Fatal("adversary-free report renders an arms-race section")
		}
		if strings.Contains(string(baseJSON), `"Outcomes"`) {
			t.Fatal("adversary-free report JSON carries an Outcomes key")
		}

		for _, variant := range []struct{ adv, cm string }{
			{"off", ""}, {"", "off"}, {"off", "off"},
		} {
			cfg := base
			cfg.Adversary = variant.adv
			cfg.Countermeasures = variant.cm
			study := searchads.NewStudy(cfg)
			ds, err := study.Crawl(ctx)
			if err != nil {
				t.Fatalf("adv=%q cm=%q: %v", variant.adv, variant.cm, err)
			}
			if !bytes.Equal(saveBytes(t, ds), baseBytes) {
				t.Fatalf("seed=%d adv=%q cm=%q: dataset bytes differ from the adversary-free study",
					base.Seed, variant.adv, variant.cm)
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
				t.Fatalf("seed=%d adv=%q cm=%q: report JSON differs from the adversary-free study",
					base.Seed, variant.adv, variant.cm)
			}
		}
	}
}

// TestAdversaryCrawlSequentialParallelByteIdentical is the arms-race
// property test: for any (seed, posture, countermeasure bundle) — with
// or without i.i.d. faults underneath — the parallel crawl's dataset is
// byte-identical to the sequential crawl's, and a repeat run reproduces
// it exactly. Suspicion state, challenge tokens, brownout rolls, and
// breaker state are all pure functions of the plan, never of
// scheduling.
func TestAdversaryCrawlSequentialParallelByteIdentical(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		seed    int64
		posture string
		cm      string
		profile string
		rate    float64
	}{
		{717, "strict", "off", "", 0},
		{727, "strict", "full", "bot-hostile", 0.05},
		{737, "lenient", "rotate", "", 0},
		{747, "paranoid", "solve", "bot-hostile", 0.1},
	}
	for _, tc := range cases {
		cfg := searchads.Config{
			Seed:             tc.seed,
			Engines:          []string{searchads.Bing, searchads.DuckDuckGo},
			QueriesPerEngine: 6,
			FaultProfile:     tc.profile,
			FaultRate:        tc.rate,
			Adversary:        tc.posture,
			Countermeasures:  tc.cm,
		}
		seqDS, err := searchads.NewStudy(cfg).Crawl(ctx)
		if err != nil {
			t.Fatalf("%s/%s sequential: %v", tc.posture, tc.cm, err)
		}
		seq := saveBytes(t, seqDS)

		par := cfg
		par.Parallel = true
		parDS, err := searchads.NewStudy(par).Crawl(ctx)
		if err != nil {
			t.Fatalf("%s/%s parallel: %v", tc.posture, tc.cm, err)
		}
		if !bytes.Equal(seq, saveBytes(t, parDS)) {
			t.Fatalf("%s/%s: parallel dataset diverges from sequential", tc.posture, tc.cm)
		}

		againDS, err := searchads.NewStudy(cfg).Crawl(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq, saveBytes(t, againDS)) {
			t.Fatalf("%s/%s: repeat crawl diverges", tc.posture, tc.cm)
		}

		// The adversary must actually have touched the crawl: with a live
		// posture every iteration is outcome-accounted, and some should be
		// degraded or rescued.
		var touched int
		for _, it := range seqDS.Iterations {
			if it.Outcome != "" || it.Error != "" {
				touched++
			}
		}
		if touched == 0 {
			t.Fatalf("%s/%s: adversary left no trace over %d iterations",
				tc.posture, tc.cm, len(seqDS.Iterations))
		}
	}
}

// TestArmsRaceSuspicionOffReproducesChaosSweep pins backward
// compatibility at the artifact level: re-running the PR-6
// chaos-robustness sweep — i.i.d. faults only, suspicion machinery
// never armed — must reproduce the committed SWEEP_chaos.json byte for
// byte, new matrix dimensions and outcome plumbing notwithstanding.
func TestArmsRaceSuspicionOffReproducesChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("8-cell full-engine sweep in -short mode")
	}
	want, err := os.ReadFile("SWEEP_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := searchads.SweepPreset("chaos-robustness")
	if err != nil {
		t.Fatal(err)
	}
	m.Seeds = []int64{1, 2}
	m.QueriesPerEngine = 25
	res, err := searchads.Sweep(context.Background(), m, searchads.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n') // cmd/sweep -out appends the trailing newline
	if !bytes.Equal(got, want) {
		t.Fatal("suspicion-off chaos sweep no longer reproduces the committed SWEEP_chaos.json")
	}
}

// TestArmsRaceSweepReproducesCommitted pins the committed
// SWEEP_armsrace.json: re-running the arms-race preset at the
// generating parameters must reproduce it byte for byte.
func TestArmsRaceSweepReproducesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("12-cell full-engine sweep in -short mode")
	}
	want, err := os.ReadFile("SWEEP_armsrace.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := searchads.SweepPreset("arms-race")
	if err != nil {
		t.Fatal(err)
	}
	m.Seeds = []int64{1, 2}
	m.QueriesPerEngine = 25
	res, err := searchads.Sweep(context.Background(), m, searchads.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n') // cmd/sweep -out appends the trailing newline
	if !bytes.Equal(got, want) {
		t.Fatal("arms-race sweep no longer reproduces the committed SWEEP_armsrace.json")
	}
}

// TestArmsRaceKillResumeByteIdentical is the acceptance bar inherited
// from PR 7: with the adversary armed and the full countermeasure
// bundle on, a checkpointed study killed at random iteration boundaries
// — every iteration's early phase crosses the strict posture's brownout
// window, so kills land mid-brownout — must resume into datasets and
// reports byte-identical to an uninterrupted run, suspicion and breaker
// state included.
func TestArmsRaceKillResumeByteIdentical(t *testing.T) {
	gen := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 2; trial++ {
		base := searchads.Config{
			Seed:             int64(900 + trial),
			Engines:          []string{searchads.Bing, searchads.Google},
			QueriesPerEngine: 5,
			FaultProfile:     "bot-hostile",
			FaultRate:        0.05,
			Adversary:        "strict",
			Countermeasures:  "full",
			CheckpointEvery:  1 + gen.Intn(4),
		}
		plain := searchads.NewStudy(base)
		wantDS, err := plain.Crawl(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := saveBytes(t, wantDS)
		wantReport, err := plain.Analyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}

		base.Checkpoint = filepath.Join(t.TempDir(), "armsrace.ckpt")
		st, kills := runToCompletion(t, base, gen)
		gotDS, err := st.Resume(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, gotDS), wantBytes) {
			t.Fatalf("trial %d (%d kills): resumed adversary dataset diverges", trial, kills)
		}
		gotReport, err := st.Analyze(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if gotReport.Render() != wantReport.Render() {
			t.Fatalf("trial %d (%d kills): resumed adversary report diverges", trial, kills)
		}
		if kills == 0 {
			t.Logf("trial %d completed without a kill — raise the iteration count if this recurs", trial)
		}
	}
}

// TestArmsRaceOutcomesInReportAndTelemetry: recovered/lost/abandoned
// accounting flows from the crawl into the dataset, the report (JSON
// and render), and the telemetry counters, and the three agree.
func TestArmsRaceOutcomesInReportAndTelemetry(t *testing.T) {
	ctx := context.Background()
	tele := searchads.NewTelemetry()
	study := searchads.NewStudy(searchads.Config{
		Seed:             616,
		Engines:          []string{searchads.Bing, searchads.Google},
		QueriesPerEngine: 10,
		FaultProfile:     "bot-hostile",
		FaultRate:        0.1,
		Adversary:        "strict",
		Countermeasures:  "full",
		Telemetry:        tele,
	})
	ds, err := study.Crawl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) == 0 {
		t.Fatal("armed arms-race study reported no outcome counts")
	}
	if !strings.Contains(rep.Render(), "Arms race: iteration outcomes") {
		t.Fatal("render omits the arms-race outcome table")
	}

	// Reconcile report counts against the dataset records.
	want := make(map[string]map[string]int)
	var total int
	for _, it := range ds.Iterations {
		if it.Outcome == "" {
			continue
		}
		if want[it.Engine] == nil {
			want[it.Engine] = make(map[string]int)
		}
		want[it.Engine][it.Outcome]++
		total++
	}
	if total == 0 {
		t.Fatal("no iteration carries an outcome despite the armed adversary")
	}
	for engine, outcomes := range want {
		for o, n := range outcomes {
			if got := rep.Outcomes[engine][o]; got != n {
				t.Fatalf("report outcomes[%s][%s] = %d, dataset has %d", engine, o, got, n)
			}
		}
	}

	// The telemetry counters see the same events.
	snap := tele.Snapshot()
	counted := snap.Counter("iterations_recovered") +
		snap.Counter("iterations_lost") +
		snap.Counter("iterations_abandoned")
	if counted != uint64(total) {
		t.Fatalf("telemetry counted %d outcomes, dataset has %d", counted, total)
	}
}

// TestSweepArmsRaceDimensions: adversary posture and countermeasure
// bundle are sweep matrix dimensions — "off" keeps the PR-6 scenario
// name, armed cells get adv=/cm= segments, the expansion is
// reproducible, and the arms-race preset resolves.
func TestSweepArmsRaceDimensions(t *testing.T) {
	ctx := context.Background()
	m := searchads.SweepMatrix{
		EngineSets:       [][]string{{searchads.Bing}},
		QueriesPerEngine: 6,
		Seeds:            []int64{1},
		FaultProfiles:    []string{"bot-hostile"},
		FaultRates:       []float64{0.05},
		Adversaries:      []string{"off", "strict"},
		Countermeasures:  []string{"off", "full"},
	}
	run := func() ([]byte, *searchads.SweepResult) {
		res, err := searchads.Sweep(ctx, m, searchads.SweepOptions{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sweeptest.DeterministicJSON(t, res), res
	}
	first, res := run()
	second, _ := run()
	if !bytes.Equal(first, second) {
		t.Fatal("arms-race sweep not reproducible")
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (2 postures × 2 bundles)", len(res.Cells))
	}
	var sawBaseline, sawArmed bool
	for _, c := range res.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Scenario, c.Err)
		}
		switch {
		case !strings.Contains(c.Scenario, "adv=") && !strings.Contains(c.Scenario, "cm="):
			sawBaseline = true
			if len(c.Outcomes) != 0 {
				t.Fatalf("cell %s: outcome counts %v without adversary or countermeasures", c.Scenario, c.Outcomes)
			}
		case strings.Contains(c.Scenario, "adv=strict") && strings.Contains(c.Scenario, "cm=full"):
			sawArmed = true
			if len(c.Outcomes) == 0 {
				t.Fatalf("cell %s: no outcome counts with the adversary armed", c.Scenario)
			}
		}
	}
	if !sawBaseline || !sawArmed {
		t.Fatalf("dimension expansion incomplete: baseline=%v armed=%v", sawBaseline, sawArmed)
	}

	preset, err := searchads.SweepPreset("arms-race")
	if err != nil {
		t.Fatal(err)
	}
	if len(preset.Adversaries) == 0 || len(preset.Countermeasures) == 0 {
		t.Fatalf("arms-race preset lacks the new dimensions: %+v", preset)
	}
}
