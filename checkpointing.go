package searchads

import (
	"context"
	"errors"
	"fmt"

	"searchads/internal/checkpoint"
	"searchads/internal/crawler"
)

// Crash-safe checkpointing sentinels, re-exported from
// internal/checkpoint and matchable with errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint file that failed
	// structural verification (a file cut below its committed length,
	// flipped bits, a torn header, inconsistent state). Bytes a kill
	// left past the last commit are not damage: Resume ignores them.
	// The safe reaction is a clean restart — delete the file and run
	// fresh; a corrupt checkpoint is never resumed into a wrong report.
	ErrCheckpointCorrupt = checkpoint.ErrCheckpointCorrupt
	// ErrCheckpointMismatch reports a structurally valid checkpoint that
	// belongs to a different configuration (or a sweep checkpoint handed
	// to a study, and vice versa). Resuming would stitch two different
	// runs together, so Resume refuses.
	ErrCheckpointMismatch = checkpoint.ErrCheckpointMismatch
)

// DefaultCheckpointEvery is the default checkpoint commit interval, in
// crawled iterations. The interval trades redone work after a kill
// against commit overhead; it never affects output bytes.
const DefaultCheckpointEvery = checkpoint.DefaultEvery

// configHash fingerprints every Config field that influences output
// bytes — and nothing that does not: Parallel (and the checkpointing
// fields themselves) are deliberately excluded, so a run killed
// sequentially may resume on the worker pool and vice versa. Filter
// engines hash by presence: annotation changes dataset bytes, but two
// engines built from the same lists are interchangeable.
func (s *Study) configHash() (string, error) {
	return checkpoint.HashConfig(struct {
		Seed              int64
		Engines           []string
		QueriesPerEngine  int
		Iterations        int
		Storage           StorageMode
		CaptureProb       float64
		NoStealth         bool
		SkipRevisit       bool
		Calibrations      map[string]EngineCalibration
		ReferrerSmuggling bool
		FaultProfile      string
		FaultRate         float64
		Adversary         string
		Countermeasures   string
		Filter            bool
	}{
		s.cfg.Seed, s.cfg.Engines, s.cfg.QueriesPerEngine, s.cfg.Iterations,
		s.cfg.Storage, s.cfg.CaptureProb, s.cfg.NoStealth, s.cfg.SkipRevisit,
		s.cfg.Calibrations, s.cfg.ReferrerSmuggling,
		s.cfg.FaultProfile, s.cfg.FaultRate, s.cfg.Adversary, s.cfg.Countermeasures,
		s.cfg.Filter != nil,
	})
}

// Resume continues a killed crawl from Config.Checkpoint and caches the
// completed dataset exactly as Crawl does. The resumed run is
// byte-identical to one that was never interrupted: the checkpoint
// carries the crawled prefix, the remaining iterations re-derive from a
// fresh world (identifier streams key on (engine, iteration) labels, so
// skipping is re-derivation, not replay), and analysis re-folds the
// stitched stream.
//
// A missing checkpoint file is not an error — the run starts fresh,
// with checkpointing on. A damaged file returns an error wrapping
// ErrCheckpointCorrupt; one from a different configuration wraps
// ErrCheckpointMismatch. Neither ever yields a silently wrong dataset.
//
// Cancellation mid-crawl commits the journal, then returns the
// partial dataset alongside an error wrapping ErrCanceled — call Resume
// again (even from a new process, with a new parallelism) to continue.
// On success the checkpoint file is removed.
func (s *Study) Resume(ctx context.Context) (*Dataset, error) {
	if s.cfgErr != nil {
		return nil, s.cfgErr
	}
	if s.cfg.Checkpoint == "" {
		return nil, errors.New("searchads: Resume requires Config.Checkpoint")
	}
	if s.dataset != nil {
		return s.dataset, nil
	}
	return s.crawlCheckpointed(ctx, true)
}

// crawlCheckpointed runs the live crawl, journaling each iteration to
// Config.Checkpoint. With resume it continues the journal there
// (starting one when none exists), fast-forwarded past the crawled
// prefix it holds; without, a fresh journal replaces any file there.
// The dataset it caches holds prefix + freshly crawled tail in dataset
// order.
func (s *Study) crawlCheckpointed(ctx context.Context, resume bool) (*Dataset, error) {
	hash, err := s.configHash()
	if err != nil {
		return nil, err
	}
	opts := checkpoint.Options{Every: s.cfg.CheckpointEvery, Telemetry: s.cfg.Telemetry}
	var j *checkpoint.Journal
	var prefix []*Iteration
	if resume {
		var st *checkpoint.State
		j, st, err = checkpoint.Open(s.cfg.Checkpoint, checkpoint.KindStudy, hash, opts)
		if err == nil {
			prefix = make([]*Iteration, len(st.Records))
			for i, rec := range st.Records {
				prefix[i] = rec.Iteration
			}
		}
	} else {
		j, err = checkpoint.Create(s.cfg.Checkpoint, checkpoint.KindStudy, hash, opts)
	}
	if err != nil {
		return nil, err
	}
	w := s.freshWorld()
	s.crawled = true
	ccfg := s.crawlerConfig(w)
	if len(prefix) > 0 {
		ccfg.Resume = crawler.ResumeFromIterations(prefix)
	}
	c := crawler.New(ccfg)
	ds := c.NewDataset()
	ds.Iterations = append(ds.Iterations, prefix...)
	for it, iterErr := range c.Iterations(ctx) {
		if iterErr != nil {
			// Commit the journal before surfacing the abort so a kill
			// at this boundary loses no crawled iteration.
			if closeErr := j.Close(); closeErr != nil {
				iterErr = errors.Join(iterErr, closeErr)
			}
			return ds, wrapCanceled(iterErr)
		}
		if s.cfg.Sink != nil {
			s.cfg.Sink(it)
		}
		ds.Iterations = append(ds.Iterations, it)
		if err := j.Append(0, it); err != nil {
			j.Close()
			return ds, fmt.Errorf("searchads: checkpoint write: %w", err)
		}
	}
	s.dataset = ds
	if err := j.Discard(); err != nil {
		// The dataset is complete and cached; a leftover checkpoint only
		// costs the next Resume a no-op load, so report but keep it.
		return ds, err
	}
	return ds, nil
}
