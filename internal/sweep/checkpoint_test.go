package sweep_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"searchads/internal/checkpoint"
	"searchads/internal/crawler"
	"searchads/internal/storage"
	"searchads/internal/sweep"
	"searchads/internal/sweep/sweeptest"
)

// ckptMatrix is the small 4-cell matrix the kill/resume tests sweep:
// 2 seeds × 2 storage modes, a few iterations per engine.
func ckptMatrix() sweep.Matrix {
	return sweep.Matrix{
		Seeds:            []int64{21, 22},
		Storage:          []storage.Mode{storage.Flat, storage.Partitioned},
		EngineSets:       [][]string{{"bing", "google"}},
		QueriesPerEngine: 4,
	}
}

// TestSweepKillResumeByteIdentical kills a checkpointed sweep at random
// iteration boundaries (via the OnIteration hook), resumes it with a
// freshly rolled parallelism, and repeats until a run completes: the
// final cells and aggregates must equal the uninterrupted sweep's byte
// for byte, and each cell must have reported exactly once across all
// rounds — completed cells are skipped, not re-run.
func TestSweepKillResumeByteIdentical(t *testing.T) {
	m := ckptMatrix()
	want, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := sweeptest.DeterministicJSON(t, want)

	gen := rand.New(rand.NewSource(20231001))
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	reported := make(map[string]int)
	var res *sweep.Result
	kills := 0
	for round := 0; ; round++ {
		if round > 60 {
			t.Fatal("kill/resume loop does not converge")
		}
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		n, kill := 0, 1+gen.Intn(10)
		opts := sweep.Options{
			Parallel:        1 + gen.Intn(3),
			Checkpoint:      path,
			CheckpointEvery: 1 + gen.Intn(5),
			OnIteration: func(sweep.Cell, *crawler.Iteration) {
				mu.Lock()
				if n++; n == kill {
					cancel()
				}
				mu.Unlock()
			},
			OnCellDone: func(done, total int, c sweep.Cell, err error) {
				if err == nil {
					reported[fmt.Sprintf("%s/%d", c.Scenario, c.Seed)]++
				}
			},
		}
		r, err := sweep.Run(ctx, m, opts)
		cancel()
		if err == nil {
			res = r
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: %v", round, err)
		}
		kills++
		if _, statErr := os.Stat(path); statErr != nil {
			t.Fatalf("round %d: killed sweep left no checkpoint: %v", round, statErr)
		}
	}
	if !bytes.Equal(sweeptest.DeterministicJSON(t, res), wantBytes) {
		t.Fatalf("resumed sweep (%d kills) diverges from the uninterrupted sweep", kills)
	}
	for key, n := range reported {
		if n != 1 {
			t.Fatalf("cell %s completed %d times across resume rounds, want exactly 1", key, n)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint survived a completed sweep: %v", err)
	}
	if kills == 0 {
		t.Log("sweep completed without a kill — raise the matrix size if this recurs")
	}
}

// TestSweepCheckpointOffByteIdentical pins the no-regression guarantee
// at the sweep layer: checkpointing an uninterrupted sweep changes no
// deterministic output byte.
func TestSweepCheckpointOffByteIdentical(t *testing.T) {
	m := ckptMatrix()
	plain, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ckpt, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2, Checkpoint: path, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sweeptest.DeterministicJSON(t, plain), sweeptest.DeterministicJSON(t, ckpt)) {
		t.Fatal("checkpointing changed sweep output bytes")
	}
}

// TestSweepCheckpointMismatch pins the identity contract: a checkpoint
// from a different matrix refuses to resume, a damaged file surfaces
// the corrupt sentinel, and a study checkpoint is not a sweep's.
func TestSweepCheckpointMismatch(t *testing.T) {
	m := ckptMatrix()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	n := 0
	_, err := sweep.Run(ctx, m, sweep.Options{
		Parallel:   1,
		Checkpoint: path,
		OnIteration: func(sweep.Cell, *crawler.Iteration) {
			mu.Lock()
			if n++; n == 3 {
				cancel()
			}
			mu.Unlock()
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kill run: %v", err)
	}

	other := m
	other.Seeds = []int64{99}
	if _, err := sweep.Run(context.Background(), other, sweep.Options{Checkpoint: path}); !errors.Is(err, checkpoint.ErrCheckpointMismatch) {
		t.Fatalf("different matrix: got %v, want ErrCheckpointMismatch", err)
	}

	study, err := checkpoint.Create(path, checkpoint.KindStudy, "somehash", checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := study.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), m, sweep.Options{Checkpoint: path}); !errors.Is(err, checkpoint.ErrCheckpointMismatch) {
		t.Fatalf("study checkpoint: got %v, want ErrCheckpointMismatch", err)
	}

	if err := os.WriteFile(path, []byte("definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), m, sweep.Options{Checkpoint: path}); !errors.Is(err, checkpoint.ErrCheckpointCorrupt) {
		t.Fatalf("damaged checkpoint: got %v, want ErrCheckpointCorrupt", err)
	}
}

// killSweep runs the checkpointed sweep until n live iterations have
// been crawled, then cancels it, leaving a committed journal at path.
func killSweep(t *testing.T, m sweep.Matrix, path string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	seen := 0
	_, err := sweep.Run(ctx, m, sweep.Options{
		Parallel:        2,
		Checkpoint:      path,
		CheckpointEvery: 2,
		OnIteration: func(sweep.Cell, *crawler.Iteration) {
			mu.Lock()
			if seen++; seen == n {
				cancel()
			}
			mu.Unlock()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("kill run: %v", err)
	}
}

// Journal layout constants (see the internal/checkpoint package doc).
const (
	journalHeader = 96
	frameSize     = 8
)

// committedLen reads the journal header's committed record length.
func committedLen(data []byte) int {
	return int(binary.LittleEndian.Uint64(data[8:16]))
}

// TestSweepTornTailResumes pins recovery from a kill mid-append: bytes
// past the journal's committed length — garbage or a partial record —
// are ignored, and the resumed sweep is byte-identical to an
// uninterrupted one. A file cut below the committed length is corrupt.
func TestSweepTornTailResumes(t *testing.T) {
	m := ckptMatrix()
	want, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, tail := range map[string][]byte{
		"garbage":        []byte("\x00\xff torn garbage after the commit"),
		"partial record": {200, 0, 0, 0, 1, 2, 3, 4, 'i', 0, 0},
	} {
		path := filepath.Join(dir, name+".ckpt")
		killSweep(t, m, path, 7)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 1, Checkpoint: path})
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if !bytes.Equal(sweeptest.DeterministicJSON(t, got), sweeptest.DeterministicJSON(t, want)) {
			t.Fatalf("%s: resumed sweep diverges from the uninterrupted sweep", name)
		}
	}

	path := filepath.Join(dir, "cut.ckpt")
	killSweep(t, m, path, 7)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if committedLen(data) == 0 {
		t.Fatal("kill run committed no records")
	}
	cut := data[:journalHeader+committedLen(data)-1]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), m, sweep.Options{Checkpoint: path}); !errors.Is(err, checkpoint.ErrCheckpointCorrupt) {
		t.Fatalf("journal cut below its committed length: got %v, want ErrCheckpointCorrupt", err)
	}
}

// record is one committed journal record as the tests below edit it.
type record struct {
	typ  byte
	cell uint32
	body []byte
}

// committedRecords splits a journal's committed region into records.
func committedRecords(data []byte) []record {
	var recs []record
	for rest := data[journalHeader : journalHeader+committedLen(data)]; len(rest) > 0; {
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		p := rest[frameSize : frameSize+n]
		recs = append(recs, record{p[0], binary.LittleEndian.Uint32(p[1:5]), p[5:]})
		rest = rest[frameSize+n:]
	}
	return recs
}

// rejournal rebuilds journal bytes around edited records: each is
// re-framed with a valid CRC and the header is re-sealed over them.
func rejournal(data []byte, recs []record) []byte {
	out := bytes.Clone(data[:journalHeader])
	for _, r := range recs {
		payload := append([]byte{r.typ, 0, 0, 0, 0}, r.body...)
		binary.LittleEndian.PutUint32(payload[1:5], r.cell)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
		out = append(out, payload...)
	}
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(out)-journalHeader))
	binary.LittleEndian.PutUint32(out[92:96], crc32.ChecksumIEEE(out[:92]))
	return out
}

// TestSweepNullPrefixRecordIsCorrupt is the regression test for a
// CRC-valid sweep journal whose in-flight prefix holds a null
// iteration: resume must refuse it with the typed corrupt error
// instead of handing the null to a worker's crawl, which panicked.
func TestSweepNullPrefixRecordIsCorrupt(t *testing.T) {
	m := ckptMatrix()
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	killSweep(t, m, path, 5)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := committedRecords(data)
	if recs[0].typ != 'i' {
		t.Fatalf("first record has type %q, want an iteration", recs[0].typ)
	}
	recs[0].body = []byte("null")
	if err := os.WriteFile(path, rejournal(data, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = sweep.Run(context.Background(), m, sweep.Options{Parallel: 2, Checkpoint: path})
	if !errors.Is(err, checkpoint.ErrCheckpointCorrupt) {
		t.Fatalf("null prefix record: got %v, want ErrCheckpointCorrupt", err)
	}
}

// TestSweepResumeSkipsCompletedCellIterations pins the resume memory
// bound: the journal keeps a completed cell's iterations, but resume
// never decodes them. Every such record is rewritten below as valid
// JSON that does not decode as an iteration; the resume must still
// succeed and match the uninterrupted sweep byte for byte.
func TestSweepResumeSkipsCompletedCellIterations(t *testing.T) {
	m := ckptMatrix()
	want, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	// Two workers crawling 8-iteration cells: by the 20th iteration one
	// of them has completed a cell.
	killSweep(t, m, path, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := committedRecords(data)
	done := make(map[uint32]bool)
	for _, r := range recs {
		if r.typ == 'd' {
			done[r.cell] = true
		}
	}
	poisoned := 0
	for i, r := range recs {
		if r.typ == 'i' && done[r.cell] {
			recs[i].body = []byte(`{"engine":5}`)
			poisoned++
		}
	}
	if poisoned == 0 {
		t.Fatalf("kill run journaled no iteration of a completed cell (%d cells done)", len(done))
	}
	if err := os.WriteFile(path, rejournal(data, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Run(context.Background(), m, sweep.Options{Parallel: 2, Checkpoint: path})
	if err != nil {
		t.Fatalf("resume decoded a completed cell's iterations: %v", err)
	}
	if !bytes.Equal(sweeptest.DeterministicJSON(t, got), sweeptest.DeterministicJSON(t, want)) {
		t.Fatal("resumed sweep diverges from the uninterrupted sweep")
	}
}
