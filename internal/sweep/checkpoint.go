package sweep

import (
	"encoding/json"
	"fmt"

	"searchads/internal/checkpoint"
	"searchads/internal/crawler"
)

// matrixHash fingerprints everything that influences a sweep's output
// bytes: the expanded cells (fully value-typed) and whether custom
// filter/entity dependencies replace the embedded defaults. Worker-pool
// width and analysis shard count are deliberately excluded — a sweep
// may resume with different parallelism.
func matrixHash(cells []Cell, opts Options) (string, error) {
	return checkpoint.HashConfig(struct {
		Cells    []Cell
		Filter   bool
		Entities bool
	}{cells, opts.Filter != nil, opts.Entities != nil})
}

// initCheckpoint opens the sweep's checkpoint journal and, when one
// exists, restores completed cells into r.results and in-flight
// prefixes into r.resume. A damaged file surfaces
// ErrCheckpointCorrupt, one from a different matrix
// ErrCheckpointMismatch — the sweep never resumes into wrong numbers.
func (r *runner) initCheckpoint() error {
	hash, err := matrixHash(r.cells, r.opts)
	if err != nil {
		return err
	}
	j, st, err := checkpoint.Open(r.opts.Checkpoint, checkpoint.KindSweep, hash,
		checkpoint.Options{Every: r.opts.CheckpointEvery, Telemetry: r.opts.Telemetry})
	if err != nil {
		return err
	}
	r.restored = make([]bool, len(r.cells))
	r.resume = make([][]*crawler.Iteration, len(r.cells))
	for _, rec := range st.Records {
		i := rec.Cell
		if i < 0 || i >= len(r.cells) {
			j.Close()
			return fmt.Errorf("%w: record names cell %d, matrix expands to %d",
				checkpoint.ErrCheckpointCorrupt, i, len(r.cells))
		}
		if rec.Iteration != nil {
			r.resume[i] = append(r.resume[i], rec.Iteration)
			continue
		}
		var cr CellResult
		if err := json.Unmarshal(rec.Result, &cr); err != nil {
			j.Close()
			return fmt.Errorf("%w: cell %s seed=%d result: %v",
				checkpoint.ErrCheckpointCorrupt, r.cells[i].Scenario, r.cells[i].Seed, err)
		}
		r.results[i] = cr
		r.restored[i] = true
	}
	r.ckpt = j
	return nil
}

// cellDone journals a successfully completed cell's scalar result and
// commits, so a kill after this point never re-runs the cell. Failed or
// canceled cells are NOT marked done — their iterations stay in the
// journal, and resume continues them.
func (r *runner) cellDone(i int, cr CellResult) error {
	payload, err := json.Marshal(cr)
	if err != nil {
		return fmt.Errorf("sweep: marshal cell result: %w", err)
	}
	return r.ckpt.Done(i, payload)
}
