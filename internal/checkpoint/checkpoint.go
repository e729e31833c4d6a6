// Package checkpoint is the crash-safe progress store behind resumable
// studies and sweeps: a killed run restarts from its last commit and
// produces output byte-identical to a run that was never interrupted.
//
// # Journal layout
//
// A checkpoint is an append-only journal: a fixed header followed by
// length-prefixed, CRC-framed records. Integers are little-endian.
//
//	header (96 bytes)
//	  bytes 0..3    magic "SACK"
//	  bytes 4..7    format version, uint32 (currently 2)
//	  bytes 8..15   committed length: record bytes after the header, uint64
//	  bytes 16..23  committed record count, uint64
//	  byte  24      kind: 1 study, 2 sweep
//	  byte  25      config hash length (at most 64)
//	  bytes 26..89  config hash, zero-padded
//	  bytes 90..91  reserved, zero
//	  bytes 92..95  CRC-32 (IEEE) of bytes 0..91
//
//	record
//	  bytes 0..3    payload length, uint32
//	  bytes 4..7    CRC-32 (IEEE) of the payload
//	  bytes 8..     payload: type byte ('i' iteration, 'd' cell done),
//	                cell index uint32, JSON body
//
// An iteration record holds one crawled iteration (in a sweep, of the
// cell it names; study journals use cell 0). A cell-done record holds a
// completed sweep cell's serialized result.
//
// # Commit protocol
//
// A Journal holds each appended record until the next commit, which
// encodes and frames the pending records, appends them right after the
// committed length, fsyncs, rewrites the header's committed length and
// count, and fsyncs again. Each commit writes only its own records plus
// the 96-byte header, so a run's total checkpoint I/O is linear in its
// length, and every iteration is encoded exactly once.
//
// Load trusts only the committed region. A kill mid-append leaves
// bytes past the committed length: Load ignores them, and a resumed
// writer truncates them before its first append. A kill that tears the
// header rewrite fails the header CRC, so the file fails safe as
// ErrCheckpointCorrupt — never a silently shorter or wrong resume. Any
// damage inside the committed region is ErrCheckpointCorrupt too: a
// file cut below the committed length, a record CRC mismatch, a record
// count disagreeing with the header, bad JSON, a null or empty record.
// A file in any other format revision, older or newer, surfaces as
// ErrCheckpointVersion, and a journal whose kind or config hash differs
// from the resuming run's as ErrCheckpointMismatch (see State.Verify).
//
// # What the journal holds
//
// Progress is stored in replay form: the emitted iterations in dataset
// order. The (engine, iteration) cursor is re-derived from them with
// crawler.ResumeFromIterations, and the analysis accumulator is
// deliberately NOT serialized structurally — its state is a pure
// function of the folded prefix (the Merge property tests pin this), so
// restoring it is a re-fold of the journaled iterations through a fresh
// analysis.Accumulator, which is guaranteed byte-identical where a
// hand-serialized mirror of interned-id state could silently drift. A
// sweep journal interleaves its in-flight cells' iterations; a
// completed cell's done record supersedes its iterations, which Load
// verifies but never decodes, so a resume holds only the in-flight
// prefixes in memory. The file itself grows with the whole run until
// the run completes and deletes it.
package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"sync"
	"time"

	"searchads/internal/atomicfile"
	"searchads/internal/crawler"
	"searchads/internal/telemetry"
)

// Typed sentinel errors, matchable with errors.Is.
var (
	// ErrCheckpointCorrupt reports a checkpoint file that failed
	// structural verification: bad magic, a torn header, a file shorter
	// than its committed length, a record CRC mismatch, unparsable JSON,
	// or internally inconsistent state. The safe reaction is a clean
	// restart from scratch — never a resume.
	ErrCheckpointCorrupt = errors.New("checkpoint: corrupt or truncated checkpoint")
	// ErrCheckpointMismatch reports a structurally valid checkpoint
	// that belongs to a different run: its config/matrix hash does not
	// match the configuration trying to resume it. Resuming would
	// stitch two different studies together, so the load refuses.
	ErrCheckpointMismatch = errors.New("checkpoint: checkpoint belongs to a different configuration")
	// ErrCheckpointVersion reports a checkpoint written in a format
	// revision this release does not read: an older layout (such as
	// the version-1 whole-state snapshot) or a newer one.
	ErrCheckpointVersion = errors.New("checkpoint: unsupported checkpoint format version")
)

// FormatVersion is the current on-disk format revision.
const FormatVersion = 2

// DefaultEvery is the default commit interval, in appended iterations.
// The interval trades redone work after a kill against commit overhead;
// it never affects output bytes.
const DefaultEvery = 25

// Journal kinds.
const (
	KindStudy = "study"
	KindSweep = "sweep"
)

var magic = [4]byte{'S', 'A', 'C', 'K'}

const (
	headerSize = 96
	maxHashLen = 64
	// frameSize is a record's length + CRC prefix; recordHead the type
	// byte and cell index that open its payload.
	frameSize  = 8
	recordHead = 5
)

// Record types.
const (
	recIteration byte = 'i'
	recCellDone  byte = 'd'
)

// kindCodes maps a kind byte to its name; index 0 is invalid.
var kindCodes = [...]string{1: KindStudy, 2: KindSweep}

func kindCode(kind string) (byte, bool) {
	for code, name := range kindCodes {
		if code > 0 && name == kind {
			return byte(code), true
		}
	}
	return 0, false
}

// Record is one committed journal record: either an iteration of
// Cell's crawl or Cell's completion result.
type Record struct {
	// Cell is the sweep cell index (0 in study journals).
	Cell int
	// Iteration is set on iteration records.
	Iteration *crawler.Iteration
	// Result is set on cell-done records: the serialized
	// sweep.CellResult (opaque to this package — the sweep layer owns
	// the type).
	Result json.RawMessage
}

// State is a journal's committed content, as Load decodes it.
type State struct {
	// Kind is KindStudy or KindSweep.
	Kind string
	// ConfigHash fingerprints the run's configuration (HashConfig of
	// the caller's canonical config form). Resume refuses a journal
	// whose hash differs from the resuming run's.
	ConfigHash string
	// Records holds the committed records a resume needs, in write
	// order: every cell-done record, and the iterations of cells that
	// have none. A completed cell's iterations are left out.
	Records []Record

	// length and count are the header's committed length and record
	// count: where a resumed writer appends next.
	length int64
	count  uint64
	// superseded counts the committed iteration records left out of
	// Records, undecoded, because their cell's done record follows.
	superseded int
}

// Verify checks the journal against the resuming run's identity.
func (s *State) Verify(kind, configHash string) error {
	if s.Kind != kind {
		return fmt.Errorf("%w: checkpoint is a %s, not a %s", ErrCheckpointMismatch, s.Kind, kind)
	}
	if s.ConfigHash != configHash {
		return fmt.Errorf("%w: config hash %s, want %s", ErrCheckpointMismatch, s.ConfigHash, configHash)
	}
	return nil
}

// Options tune a Journal's writer.
type Options struct {
	// Every commits after that many appended iterations
	// (0 = DefaultEvery).
	Every int
	// Telemetry, when set, records every commit: the checkpoint_write
	// stage, the write and byte counters, and a "checkpoint" event.
	Telemetry *telemetry.Registry
}

// Journal is an open checkpoint being appended to. Its methods are
// safe for concurrent use: sweep workers share one journal.
type Journal struct {
	path  string
	every int
	tele  *telemetry.Registry

	mu      sync.Mutex
	f       *os.File
	hdr     [headerSize]byte
	length  int64
	count   uint64
	pending []Record      // appended since the last commit
	buf     bytes.Buffer  // pending records framed by the current commit
	enc     *json.Encoder // encodes iterations into buf
}

// Create starts a fresh, empty journal at path, atomically replacing
// any file already there.
func Create(path, kind, configHash string, opts Options) (*Journal, error) {
	j, err := newJournal(path, kind, configHash, opts)
	if err != nil {
		return nil, err
	}
	if err := atomicfile.WriteFile(path, j.hdr[:]); err != nil {
		return nil, err
	}
	if j.f, err = os.OpenFile(path, os.O_RDWR, 0); err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	return j, nil
}

// Open resumes the journal at path for appending and returns its
// committed state, or creates a fresh journal (with an empty state)
// when no file exists. A damaged file surfaces ErrCheckpointCorrupt,
// one from another run ErrCheckpointMismatch.
func Open(path, kind, configHash string, opts Options) (*Journal, *State, error) {
	st, err := Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		j, err := Create(path, kind, configHash, opts)
		if err != nil {
			return nil, nil, err
		}
		return j, &State{Kind: kind, ConfigHash: configHash}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	if err := st.Verify(kind, configHash); err != nil {
		return nil, nil, err
	}
	j, err := newJournal(path, kind, configHash, opts)
	if err != nil {
		return nil, nil, err
	}
	j.length, j.count = st.length, st.count
	if j.f, err = os.OpenFile(path, os.O_RDWR, 0); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	// Drop a torn tail so the next append lands right after the
	// committed region.
	if err := j.f.Truncate(headerSize + j.length); err != nil {
		j.f.Close()
		return nil, nil, fmt.Errorf("checkpoint: truncate %s: %w", path, err)
	}
	return j, st, nil
}

func newJournal(path, kind, configHash string, opts Options) (*Journal, error) {
	code, ok := kindCode(kind)
	if !ok {
		return nil, fmt.Errorf("checkpoint: unknown journal kind %q", kind)
	}
	if len(configHash) > maxHashLen {
		return nil, fmt.Errorf("checkpoint: config hash is %d bytes, at most %d fit", len(configHash), maxHashLen)
	}
	every := opts.Every
	if every <= 0 {
		every = DefaultEvery
	}
	j := &Journal{path: path, every: every, tele: opts.Telemetry}
	j.enc = json.NewEncoder(&j.buf)
	copy(j.hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(j.hdr[4:8], FormatVersion)
	j.hdr[24] = code
	j.hdr[25] = byte(len(configHash))
	copy(j.hdr[26:26+maxHashLen], configHash)
	j.sealHeader(0, 0)
	return j, nil
}

// sealHeader writes the commit fields and the header CRC.
func (j *Journal) sealHeader(length int64, count uint64) {
	binary.LittleEndian.PutUint64(j.hdr[8:16], uint64(length))
	binary.LittleEndian.PutUint64(j.hdr[16:24], count)
	binary.LittleEndian.PutUint32(j.hdr[92:96], crc32.ChecksumIEEE(j.hdr[:92]))
}

// Append journals one crawled iteration of cell, committing once Every
// records have accumulated since the last commit. The journal holds the
// iteration until that commit encodes it.
func (j *Journal) Append(cell int, it *crawler.Iteration) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = append(j.pending, Record{Cell: cell, Iteration: it})
	if len(j.pending) >= j.every {
		return j.commit()
	}
	return nil
}

// Done journals a completed sweep cell's serialized result and commits
// at once, so a kill after Done returns never re-runs the cell.
func (j *Journal) Done(cell int, result json.RawMessage) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pending = append(j.pending, Record{Cell: cell, Result: result})
	return j.commit()
}

// frame appends one record to buf: length and CRC, then the type byte,
// cell index and JSON body.
func (j *Journal) frame(r Record) error {
	start := j.buf.Len()
	var head [frameSize + recordHead]byte
	j.buf.Write(head[:])
	typ := recCellDone
	if r.Iteration != nil {
		typ = recIteration
		if err := j.enc.Encode(r.Iteration); err != nil {
			return fmt.Errorf("checkpoint: marshal iteration: %w", err)
		}
	} else {
		j.buf.Write(r.Result)
	}
	rec := j.buf.Bytes()[start:]
	payload := rec[frameSize:]
	if len(payload) > math.MaxUint32 {
		return fmt.Errorf("checkpoint: %d-byte record exceeds the frame limit", len(payload))
	}
	payload[0] = typ
	binary.LittleEndian.PutUint32(payload[1:5], uint32(r.Cell))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// Close commits the pending records and closes the file: the exit path
// of an interrupted or failed run, whose journal a later run resumes.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return errors.Join(j.commit(), j.f.Close())
}

// Discard closes the journal and deletes its file, tolerating the
// file's absence — the completion path of a successful run.
func (j *Journal) Discard() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
	if err := os.Remove(j.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("checkpoint: remove %s: %w", j.path, err)
	}
	return nil
}

// commit writes the pending records and reports the write to
// telemetry; callers hold j.mu. With nothing pending it writes nothing.
func (j *Journal) commit() error {
	if len(j.pending) == 0 {
		return nil
	}
	if j.tele == nil {
		_, err := j.write()
		return err
	}
	start := time.Now()
	n, err := j.write()
	wall := time.Since(start)
	j.tele.ObserveWall(telemetry.StageCheckpointWrite, wall)
	j.tele.Inc(telemetry.CounterCheckpointWrites)
	j.tele.Add(telemetry.CounterCheckpointBytes, uint64(n))
	ev := telemetry.Event{Type: "checkpoint", Bytes: n, WallMicros: wall.Microseconds()}
	if err != nil {
		ev.Err = err.Error()
	}
	j.tele.Emit(ev)
	return err
}

// write is one commit: frame the pending records, append them past the
// committed length, fsync, rewrite the header, fsync. It returns the
// bytes written (records + header), 0 on error. A failed write leaves
// the committed state and the pending records as they were, so the
// next commit rewrites the same region.
func (j *Journal) write() (int, error) {
	j.buf.Reset()
	for _, r := range j.pending {
		if err := j.frame(r); err != nil {
			return 0, err
		}
	}
	records := j.buf.Bytes()
	if _, err := j.f.WriteAt(records, headerSize+j.length); err != nil {
		return 0, fmt.Errorf("checkpoint: append records: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return 0, fmt.Errorf("checkpoint: fsync records: %w", err)
	}
	length, count := j.length+int64(len(records)), j.count+uint64(len(j.pending))
	j.sealHeader(length, count)
	if _, err := j.f.WriteAt(j.hdr[:], 0); err != nil {
		return 0, fmt.Errorf("checkpoint: rewrite header: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return 0, fmt.Errorf("checkpoint: fsync header: %w", err)
	}
	j.length, j.count = length, count
	clear(j.pending)
	j.pending = j.pending[:0]
	return len(records) + headerSize, nil
}

// Load reads and verifies a checkpoint. It returns fs.ErrNotExist
// (unwrapped check via errors.Is) when no checkpoint exists,
// ErrCheckpointCorrupt for any damage in the committed region, and
// ErrCheckpointVersion for files in another format revision.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	s, err := decode(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Decode verifies and parses journal bytes (the file form Load reads;
// split out so fuzzing can drive it directly). Bytes past the committed
// length are ignored.
func Decode(data []byte) (*State, error) {
	return decode(bytes.NewReader(data), int64(len(data)))
}

// frameRef locates one verified record of the committed region.
type frameRef struct {
	cell   int
	off    int64           // file offset of an iteration record's JSON body
	n      int             // body length
	result json.RawMessage // a cell-done record's result; nil for iterations
}

// decode verifies a journal in two passes, so a resume holds only what
// it needs in memory, never the whole file. The first pass walks every
// committed frame: its CRC, record type and cell, and a JSON validity
// scan of its body. The second decodes the iterations of cells that
// have no done record; a completed cell's iterations are superseded and
// never decoded.
func decode(r io.ReaderAt, size int64) (*State, error) {
	var hdr [headerSize]byte
	n, err := r.ReadAt(hdr[:], 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("checkpoint: read header: %w", err)
	}
	data := hdr[:n]
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the magic and version", ErrCheckpointCorrupt, len(data))
	}
	if [4]byte(data[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("%w: version %d (this release reads %d)", ErrCheckpointVersion, v, FormatVersion)
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCheckpointCorrupt, len(data), headerSize)
	}
	if got, want := crc32.ChecksumIEEE(data[:92]), binary.LittleEndian.Uint32(data[92:96]); got != want {
		return nil, fmt.Errorf("%w: header CRC %08x, header says %08x", ErrCheckpointCorrupt, got, want)
	}
	code, hashLen := int(data[24]), int(data[25])
	if code == 0 || code >= len(kindCodes) {
		return nil, fmt.Errorf("%w: unknown journal kind %d", ErrCheckpointCorrupt, code)
	}
	if hashLen > maxHashLen {
		return nil, fmt.Errorf("%w: config hash length %d", ErrCheckpointCorrupt, hashLen)
	}
	s := &State{
		Kind:       kindCodes[code],
		ConfigHash: string(data[26 : 26+hashLen]),
		count:      binary.LittleEndian.Uint64(data[16:24]),
	}
	length := binary.LittleEndian.Uint64(data[8:16])
	if length > uint64(size-headerSize) {
		return nil, fmt.Errorf("%w: header commits %d record bytes, file holds %d", ErrCheckpointCorrupt, length, size-headerSize)
	}
	s.length = int64(length)

	// Pass 1: verify every committed frame.
	var (
		refs    []frameRef
		done    = make(map[int]bool)
		payload []byte
		frame   [frameSize]byte
	)
	in := bufio.NewReader(io.NewSectionReader(r, headerSize, s.length))
	for off := int64(headerSize); off < headerSize+s.length; {
		rest := headerSize + s.length - off
		if rest < frameSize {
			return nil, fmt.Errorf("%w: record %d: torn frame inside the committed region", ErrCheckpointCorrupt, len(refs))
		}
		if _, err := io.ReadFull(in, frame[:]); err != nil {
			return nil, fmt.Errorf("checkpoint: read record %d: %w", len(refs), err)
		}
		n := int64(binary.LittleEndian.Uint32(frame[0:4]))
		if n > rest-frameSize {
			return nil, fmt.Errorf("%w: record %d claims %d bytes past the committed region", ErrCheckpointCorrupt, len(refs), n)
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(in, payload); err != nil {
			return nil, fmt.Errorf("checkpoint: read record %d: %w", len(refs), err)
		}
		if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(frame[4:8]); got != want {
			return nil, fmt.Errorf("%w: record %d CRC %08x, frame says %08x", ErrCheckpointCorrupt, len(refs), got, want)
		}
		ref, err := s.scanRecord(payload, done)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrCheckpointCorrupt, len(refs), err)
		}
		ref.off = off + frameSize + recordHead
		refs = append(refs, ref)
		off += frameSize + n
	}
	if uint64(len(refs)) != s.count {
		return nil, fmt.Errorf("%w: header commits %d records, committed region holds %d", ErrCheckpointCorrupt, s.count, len(refs))
	}

	// Pass 2: decode what a resume needs.
	for i, ref := range refs {
		rec := Record{Cell: ref.cell, Result: ref.result}
		if ref.result == nil {
			if done[ref.cell] {
				s.superseded++
				continue
			}
			body := payload[:ref.n]
			if _, err := r.ReadAt(body, ref.off); err != nil {
				return nil, fmt.Errorf("checkpoint: read record %d: %w", i, err)
			}
			if err := json.Unmarshal(body, &rec.Iteration); err != nil {
				return nil, fmt.Errorf("%w: record %d: %v", ErrCheckpointCorrupt, i, err)
			}
			if rec.Iteration == nil || rec.Iteration.Engine == "" {
				return nil, fmt.Errorf("%w: record %d: null or empty iteration", ErrCheckpointCorrupt, i)
			}
		}
		s.Records = append(s.Records, rec)
	}
	return s, nil
}

// scanRecord checks one CRC-verified payload without decoding an
// iteration: its type, its cell, and that its body is a JSON value
// other than null. done tracks the sweep cells whose completion was
// already journaled.
func (s *State) scanRecord(payload []byte, done map[int]bool) (frameRef, error) {
	if len(payload) < recordHead {
		return frameRef{}, fmt.Errorf("%d-byte payload", len(payload))
	}
	ref := frameRef{cell: int(binary.LittleEndian.Uint32(payload[1:5]))}
	body := payload[recordHead:]
	ref.n = len(body)
	if s.Kind == KindStudy && ref.cell != 0 {
		return ref, fmt.Errorf("study record names cell %d", ref.cell)
	}
	if done[ref.cell] {
		return ref, fmt.Errorf("cell %d has a record after its completion", ref.cell)
	}
	trimmed := bytes.TrimSpace(body)
	value := json.Valid(trimmed) && string(trimmed) != "null"
	switch payload[0] {
	case recIteration:
		if !value {
			return ref, fmt.Errorf("null, empty or malformed iteration")
		}
	case recCellDone:
		if s.Kind != KindSweep {
			return ref, fmt.Errorf("cell-done record in a %s journal", s.Kind)
		}
		if !value {
			return ref, fmt.Errorf("cell %d result is not a JSON value", ref.cell)
		}
		ref.result = json.RawMessage(bytes.Clone(trimmed))
		done[ref.cell] = true
	default:
		return ref, fmt.Errorf("unknown record type %q", payload[0])
	}
	return ref, nil
}

// HashConfig fingerprints a configuration as the hex SHA-256 of its
// canonical JSON encoding (Go marshals map keys sorted, so equal
// configs hash equally regardless of construction order). Callers pass
// a digest struct holding every field that influences output bytes —
// and nothing that does not, so e.g. parallelism may change between a
// kill and its resume.
func HashConfig(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: hash config: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
