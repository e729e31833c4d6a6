package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"searchads"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop from one process: the next repetition starts when the
// previous one has returned.
type workload struct {
	name string
	size string
	// setup prepares the inputs one repetition reads; run several
	// times, it is the benchmark's set-up time.
	setup func(ctx context.Context, b *bench) error
	// rep runs one repetition, bracketing its measured part with b.m.
	rep func(ctx context.Context, b *bench) outcome
	// reference computes the digest every repetition must reproduce
	// along a different code path, and returns the iterations it
	// crawled.
	reference func(ctx context.Context, b *bench) (string, []*searchads.Iteration, error)
}

var workloads = []workload{
	{
		name:      "paper-study",
		size:      "500 queries x 5 engines, sequential crawl, streamed fold",
		setup:     func(ctx context.Context, b *bench) error { b.newStudy(paperConfig(b.seed)); return nil },
		rep:       paperStudy,
		reference: paperReference,
	},
	{
		name:      "report-replay",
		size:      "500 queries x 5 engines dataset file, load then sequential fold",
		setup:     saveDataset,
		rep:       reportReplay,
		reference: paperReference,
	},
	{
		name:  "checkpointed-crawl",
		size:  "200 queries x 5 engines, sequential crawl, checkpoint every 25 iterations",
		setup: func(ctx context.Context, b *bench) error { b.newStudy(checkpointConfig(b.seed, "")); return nil },
		rep:   checkpointedCrawl,
		reference: func(ctx context.Context, b *bench) (string, []*searchads.Iteration, error) {
			return parallelStudy(ctx, checkpointConfig(b.seed, ""))
		},
	},
	{
		name:      "armsrace-sweep",
		size:      "arms-race preset, 2 seeds x 6 scenarios, 25 queries x 5 engines per cell, nproc workers",
		setup:     sweepSetup,
		rep:       armsRace,
		reference: sweepReference,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newStudy builds a study's world (attached to the traced phase's
// telemetry) and records how long the build took.
func (b *bench) newStudy(cfg searchads.Config) *searchads.Study {
	if b.tr != nil {
		cfg.Telemetry = b.tr.tele
	}
	id := b.tr.start("websim.build", 0, -1)
	t := time.Now()
	s := searchads.NewStudy(cfg)
	b.builds = append(b.builds, time.Since(t))
	b.tr.end(id)
	return s
}

func paperConfig(seed int64) searchads.Config {
	return searchads.Config{Seed: seed, QueriesPerEngine: 500}
}

func checkpointConfig(seed int64, path string) searchads.Config {
	return searchads.Config{Seed: seed, QueriesPerEngine: 200, Checkpoint: path}
}

// paperStudy streams a sequential study into an accumulator.
func paperStudy(ctx context.Context, b *bench) outcome {
	var o outcome
	study := b.newStudy(paperConfig(b.seed))
	if o.err = b.tr.shimWorld(study.World()); o.err != nil {
		return o
	}
	b.m.start()
	root := b.tr.start("rep", 0, -1)
	acc := searchads.NewAccumulator(searchads.AnalysisOptions{})
	crawl := b.tr.start("crawler.iteration", root, 0)
	for it, err := range study.Iterations(ctx) {
		b.tr.end(crawl)
		if err != nil {
			o.err = err
			break
		}
		add := b.tr.start("analysis.add", root, o.iters)
		acc.Add(it)
		b.tr.end(add)
		o.count(it)
		crawl = b.tr.start("crawler.iteration", root, o.iters)
	}
	b.tr.end(crawl)
	var report *searchads.Report
	if o.err == nil {
		id := b.tr.start("analysis.report", root, -1)
		report = acc.Report()
		b.tr.end(id)
	}
	b.tr.end(root)
	b.m.stop()
	if report != nil {
		o.digest, o.err = reportDigest(report)
	}
	return o
}

func (b *bench) datasetPath() string { return filepath.Join(b.work, "dataset.json") }

// saveDataset crawls the paper-scale study and saves its dataset.
func saveDataset(ctx context.Context, b *bench) error {
	ds, err := b.newStudy(paperConfig(b.seed)).Crawl(ctx)
	if err != nil {
		return err
	}
	return ds.Save(b.datasetPath())
}

// reportReplay loads the saved dataset and folds it.
func reportReplay(ctx context.Context, b *bench) outcome {
	var o outcome
	b.m.start()
	root := b.tr.start("rep", 0, -1)
	load := b.tr.start("crawler.load", root, -1)
	ds, err := searchads.LoadDataset(b.datasetPath())
	b.tr.end(load)
	var report *searchads.Report
	if err == nil {
		acc := searchads.NewAccumulator(searchads.AnalysisOptions{})
		for _, it := range ds.Iterations {
			add := b.tr.start("analysis.add", root, o.iters)
			acc.Add(it)
			b.tr.end(add)
			o.count(it)
		}
		id := b.tr.start("analysis.report", root, -1)
		report = acc.Report()
		b.tr.end(id)
	}
	b.tr.end(root)
	b.m.stop()
	if err != nil {
		o.err = err
		return o
	}
	if fi, err := os.Stat(b.datasetPath()); err == nil {
		b.tr.addLoaded(fi.Size())
	}
	o.digest, o.err = reportDigest(report)
	return o
}

// checkpointedCrawl crawls with Config.Checkpoint at the default
// interval. Traced, the iteration sink marks iteration boundaries, so a
// checkpoint write falls inside the span of the iteration after which it
// ran.
func checkpointedCrawl(ctx context.Context, b *bench) outcome {
	var o outcome
	cfg := checkpointConfig(b.seed, filepath.Join(b.work, "crawl.ckpt"))
	root, crawl, n := 0, 0, 0
	if b.tr != nil {
		cfg.Sink = func(*searchads.Iteration) {
			b.tr.end(crawl)
			n++
			crawl = b.tr.start("crawler.iteration", root, n)
		}
	}
	study := b.newStudy(cfg)
	if o.err = b.tr.shimWorld(study.World()); o.err != nil {
		return o
	}
	b.m.start()
	root = b.tr.start("rep", 0, -1)
	crawl = b.tr.start("crawler.iteration", root, 0)
	ds, err := study.Crawl(ctx)
	b.tr.end(crawl)
	b.tr.end(root)
	b.m.stop()
	if err != nil {
		o.err = err
		return o
	}
	for _, it := range ds.Iterations {
		o.count(it)
	}
	o.digest, o.err = reportDigest(searchads.AnalyzeDataset(ds))
	return o
}

func paperReference(ctx context.Context, b *bench) (string, []*searchads.Iteration, error) {
	return parallelStudy(ctx, paperConfig(b.seed))
}

// parallelStudy is the reference for the study workloads: a Parallel
// crawl and a sharded fold, which must give the sequential report.
func parallelStudy(ctx context.Context, cfg searchads.Config) (string, []*searchads.Iteration, error) {
	cfg.Parallel = true
	study := searchads.NewStudy(cfg)
	ds, err := study.Crawl(ctx)
	if err != nil {
		return "", nil, err
	}
	report, err := study.Analyze(ctx)
	if err != nil {
		return "", nil, err
	}
	d, err := reportDigest(report)
	return d, ds.Iterations, err
}

func armsRaceMatrix(seed int64) (searchads.SweepMatrix, error) {
	m, err := searchads.SweepPreset("arms-race")
	if err != nil {
		return m, err
	}
	m.Seeds = []int64{seed, seed + 1}
	m.QueriesPerEngine = 25
	return m, nil
}

// sweepSetup builds the first cell's world, which warms the world-build
// path the sweep's cells take; the sweep builds its own worlds.
func sweepSetup(ctx context.Context, b *bench) error {
	m, err := armsRaceMatrix(b.seed)
	if err != nil {
		return err
	}
	c := m.Expand()[0]
	b.newStudy(searchads.Config{
		Seed: c.Seed, QueriesPerEngine: c.QueriesPerEngine,
		FaultProfile: c.FaultProfile, FaultRate: c.FaultRate,
		Adversary: c.Adversary, Countermeasures: c.Countermeasure,
	})
	return nil
}

// armsRace runs the sweep on nproc workers. Traced, a cell's span runs
// from its first crawled iteration to its completion; the sweep calls
// OnIteration and OnCellDone under one lock, so their maps need none.
func armsRace(ctx context.Context, b *bench) outcome {
	var o outcome
	m, err := armsRaceMatrix(b.seed)
	if err != nil {
		o.err = err
		return o
	}
	opts := searchads.SweepOptions{Parallel: runtime.NumCPU()}
	root := 0
	if b.tr != nil {
		opts.Telemetry = b.tr.tele
		first := map[string]time.Time{}
		cellID := map[string]int{}
		for i, c := range m.Expand() {
			cellID[cellKey(c)] = i
		}
		opts.OnIteration = func(c searchads.SweepCell, _ *searchads.Iteration) {
			if _, ok := first[cellKey(c)]; !ok {
				first[cellKey(c)] = time.Now()
			}
		}
		opts.OnCellDone = func(_, _ int, c searchads.SweepCell, _ error) {
			if start, ok := first[cellKey(c)]; ok {
				b.tr.spans.add("sweep.cell", root, cellID[cellKey(c)], start, time.Now())
			}
		}
	}
	b.m.start()
	root = b.tr.start("rep", 0, -1)
	res, err := searchads.Sweep(ctx, m, opts)
	b.tr.end(root)
	b.m.stop()
	if err != nil {
		o.err = err
		return o
	}
	for _, c := range res.Cells {
		o.iters += c.Iterations
		o.ok += c.Iterations - c.IterationErrors
	}
	o.digest, o.err = sweepDigest(res)
	return o
}

func cellKey(c searchads.SweepCell) string { return fmt.Sprintf("%s/%d", c.Scenario, c.Seed) }

// sweepDigest hashes the sweep result without its two run-time
// observations (pool width and peak retention), which may differ
// between equal sweeps.
func sweepDigest(res *searchads.SweepResult) (string, error) {
	r := *res
	r.Parallelism, r.PeakRetainedIterations = 0, 0
	data, err := json.Marshal(&r)
	if err != nil {
		return "", fmt.Errorf("encode sweep result: %w", err)
	}
	return sha(data), nil
}

// sweepReference runs the same sweep on one worker, which must give the
// parallel result.
func sweepReference(ctx context.Context, b *bench) (string, []*searchads.Iteration, error) {
	m, err := armsRaceMatrix(b.seed)
	if err != nil {
		return "", nil, err
	}
	var iters []*searchads.Iteration
	res, err := searchads.Sweep(ctx, m, searchads.SweepOptions{
		Parallel:    1,
		OnIteration: func(_ searchads.SweepCell, it *searchads.Iteration) { iters = append(iters, it) },
	})
	if err != nil {
		return "", nil, err
	}
	d, err := sweepDigest(res)
	return d, iters, err
}
