package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"searchads/internal/crawler"
	"searchads/internal/telemetry"
)

func samplePrefix() []*crawler.Iteration {
	return []*crawler.Iteration{
		{Engine: "bing", Index: 0, Instance: "bing-0000", Query: "q0", ClickedAd: -1},
		{Engine: "bing", Index: 1, Instance: "bing-0001", Query: "q1", ClickedAd: 0,
			DisplayedAds: []crawler.AdRecord{{Href: "https://x/", LandingDomain: "shop.example", Position: 1}}},
		{Engine: "google", Index: 0, Instance: "google-0000", Query: "q0", ClickedAd: -1},
	}
}

// writeSample journals the sample prefix as a study checkpoint and
// returns the file's bytes.
func writeSample(t testing.TB, path string) []byte {
	t.Helper()
	j, err := Create(path, KindStudy, "deadbeef", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range samplePrefix() {
		if err := j.Append(0, it); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// craft builds journal bytes from raw record payloads under a sealed
// header that commits exactly those records.
func craft(t *testing.T, kind string, payloads ...[]byte) []byte {
	t.Helper()
	var records []byte
	for _, p := range payloads {
		records = append(records, frameRaw(p)...)
	}
	j, err := newJournal("", kind, "deadbeef", Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.sealHeader(int64(len(records)), uint64(len(payloads)))
	return append(j.hdr[:], records...)
}

func frameRaw(payload []byte) []byte {
	out := make([]byte, frameSize, frameSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func payload(typ byte, cell uint32, body string) []byte {
	p := []byte{typ, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(p[1:5], cell)
	return append(p, body...)
}

// reseal rewrites header fields of journal bytes and recomputes the
// header CRC, so only the edited field is wrong.
func reseal(b []byte, edit func(hdr []byte)) []byte {
	out := bytes.Clone(b)
	edit(out[:headerSize])
	binary.LittleEndian.PutUint32(out[92:96], crc32.ChecksumIEEE(out[:92]))
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeSample(t, path)
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(KindStudy, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 || got.Records[1].Iteration.DisplayedAds[0].LandingDomain != "shop.example" {
		t.Fatal("iteration prefix did not round-trip")
	}
	rs := crawler.ResumeFromIterations([]*crawler.Iteration{got.Records[0].Iteration, got.Records[1].Iteration, got.Records[2].Iteration})
	if rs.Done["bing"] != 2 || rs.Done["google"] != 1 {
		t.Fatalf("cursor round-trip lost counts: %v", rs.Done)
	}

	// A resumed writer appends after the committed records.
	j, st, err := Open(path, KindStudy, "deadbeef", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != 3 {
		t.Fatalf("Open restored %d records, want 3", len(st.Records))
	}
	if err := j.Append(0, &crawler.Iteration{Engine: "google", Index: 1, Instance: "google-0001", ClickedAd: -1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 4 || got.Records[3].Iteration.Instance != "google-0001" {
		t.Fatalf("resumed append did not round-trip: %d records", len(got.Records))
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoint: got %v, want fs.ErrNotExist", err)
	}
}

// TestLoadCorruptForms drives every structural failure mode through
// Load and asserts each surfaces the typed corrupt error — never a
// parse of damaged state.
func TestLoadCorruptForms(t *testing.T) {
	dir := t.TempDir()
	good := writeSample(t, filepath.Join(dir, "run.ckpt"))
	cases := map[string][]byte{
		"empty":          {},
		"short header":   good[:10],
		"bad magic":      append([]byte("JUNK"), good[4:]...),
		"truncated tail": good[:len(good)-7],
		"flipped bit":    flip(good, len(good)-3),
		"flipped crc":    flip(good, headerSize+5),
		"length lies":    reseal(good, func(h []byte) { binary.LittleEndian.PutUint64(h[8:16], 1<<40) }),
		"garbage json":   craft(t, KindStudy, payload(recIteration, 0, "}{ not json")),
		// The header itself: a torn or flipped header fails its CRC.
		"flipped header": flip(good, 12),
		"torn header":    append(append(bytes.Clone(good[:40]), make([]byte, 56)...), good[headerSize:]...),
		"unknown kind":   reseal(good, func(h []byte) { h[24] = 9 }),
		// Records a writer never produces.
		"null iteration":    craft(t, KindStudy, payload(recIteration, 0, "null")),
		"empty iteration":   craft(t, KindStudy, payload(recIteration, 0, "")),
		"blank iteration":   craft(t, KindStudy, payload(recIteration, 0, "{}")),
		"null sweep prefix": craft(t, KindSweep, payload(recIteration, 2, "null")),
		"null cell result":  craft(t, KindSweep, payload(recCellDone, 1, "null")),
		"empty cell result": craft(t, KindSweep, payload(recCellDone, 1, "")),
		"study cell result": craft(t, KindStudy, payload(recCellDone, 0, `{"scenario":"x"}`)),
		"study cell index":  craft(t, KindStudy, payload(recIteration, 3, `{"engine":"bing"}`)),
		"record after done": craft(t, KindSweep, payload(recCellDone, 1, `{}`), payload(recIteration, 1, `{"engine":"bing"}`)),
		// A completed cell's iterations are never decoded, but they are
		// still scanned: null or malformed ones are damage too.
		"superseded null":     craft(t, KindSweep, payload(recIteration, 1, "null"), payload(recCellDone, 1, `{}`)),
		"superseded garbage":  craft(t, KindSweep, payload(recIteration, 1, "}{ not json"), payload(recCellDone, 1, `{}`)),
		"unknown record type": craft(t, KindStudy, payload('x', 0, `{"engine":"bing"}`)),
		"short payload":       craft(t, KindStudy, []byte{recIteration}),
	}
	for name, data := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(p)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: got %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0x40
	return out
}

// TestTornTailIgnored pins recovery from a kill mid-append: bytes past
// the committed length — garbage or a partial record — are ignored by
// Load and truncated by a resumed writer, whose appends then load
// cleanly.
func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	good := writeSample(t, filepath.Join(dir, "run.ckpt"))
	partial := frameRaw(payload(recIteration, 0, `{"engine":"bing","index":2}`))
	for name, tail := range map[string][]byte{
		"garbage":        []byte("\x00\xff torn garbage after the commit"),
		"partial record": partial[:len(partial)-6],
		"partial frame":  partial[:5],
		"whole record":   partial, // appended, never committed
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
		if err := os.WriteFile(path, append(bytes.Clone(good), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(st.Records) != 3 {
			t.Fatalf("%s: loaded %d records, want the 3 committed", name, len(st.Records))
		}
		j, _, err := Open(path, KindStudy, "deadbeef", Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := j.Append(0, &crawler.Iteration{Engine: "google", Index: 1, Instance: "google-0001", ClickedAd: -1}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		st, err = Load(path)
		if err != nil {
			t.Fatalf("%s after resume: %v", name, err)
		}
		if len(st.Records) != 4 || st.Records[3].Iteration.Instance != "google-0001" {
			t.Fatalf("%s: resumed writer did not replace the torn tail", name)
		}
	}
}

// TestSupersededIterationsNotDecoded pins the resume memory bound: a
// completed cell's iterations are verified but never decoded, so Load
// returns only the in-flight prefixes and the done results. The
// superseded record below is valid JSON that does not decode as an
// iteration; the same record in an in-flight cell is corrupt.
func TestSupersededIterationsNotDecoded(t *testing.T) {
	undecodable := payload(recIteration, 1, `{"engine":5}`)
	inFlight := payload(recIteration, 2, `{"engine":"bing","index":0}`)
	s, err := Decode(craft(t, KindSweep, undecodable, inFlight, payload(recCellDone, 1, `{"scenario":"x"}`)))
	if err != nil {
		t.Fatalf("superseded iteration was decoded: %v", err)
	}
	if len(s.Records) != 2 || s.superseded != 1 {
		t.Fatalf("loaded %d records and skipped %d, want 2 and 1", len(s.Records), s.superseded)
	}
	if r := s.Records[0]; r.Cell != 2 || r.Iteration == nil || r.Iteration.Engine != "bing" {
		t.Fatalf("first record %+v, want cell 2's in-flight iteration", r)
	}
	if r := s.Records[1]; r.Cell != 1 || string(r.Result) != `{"scenario":"x"}` {
		t.Fatalf("second record %+v, want cell 1's result", r)
	}
	if _, err := Decode(craft(t, KindSweep, undecodable, inFlight)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("undecodable in-flight iteration: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestLoadFutureVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.ckpt")
	data := writeSample(t, path)
	binary.LittleEndian.PutUint32(data[4:8], FormatVersion+1)
	os.WriteFile(path, data, 0o644)
	if _, err := Load(path); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("future version: got %v, want ErrCheckpointVersion", err)
	}

	// A version-1 whole-state snapshot: magic, version, payload length,
	// payload CRC, JSON.
	v1 := filepath.Join(dir, "v1.ckpt")
	snap := []byte(`{"kind":"study","config_hash":"deadbeef","study":{"cursor":{},"iterations":[]}}`)
	old := make([]byte, 20, 20+len(snap))
	copy(old, magic[:])
	binary.LittleEndian.PutUint32(old[4:8], 1)
	binary.LittleEndian.PutUint64(old[8:16], uint64(len(snap)))
	binary.LittleEndian.PutUint32(old[16:20], crc32.ChecksumIEEE(snap))
	os.WriteFile(v1, append(old, snap...), 0o644)
	if _, err := Load(v1); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("version-1 snapshot: got %v, want ErrCheckpointVersion", err)
	}
}

func TestVerifyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	writeSample(t, path)
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(KindStudy, "cafef00d"); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("hash mismatch: got %v, want ErrCheckpointMismatch", err)
	}
	if err := s.Verify(KindSweep, "deadbeef"); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("kind mismatch: got %v, want ErrCheckpointMismatch", err)
	}
	if err := s.Verify(KindStudy, "deadbeef"); err != nil {
		t.Fatalf("matching journal refused: %v", err)
	}
	if _, _, err := Open(path, KindSweep, "deadbeef", Options{}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("Open of another kind: got %v, want ErrCheckpointMismatch", err)
	}
}

// TestCursorPrefixDisagreement pins the cross-check: the header's
// committed record count is the journal's cursor, and one that does
// not match the committed records is corruption, not a resume.
func TestCursorPrefixDisagreement(t *testing.T) {
	good := writeSample(t, filepath.Join(t.TempDir(), "run.ckpt"))
	for _, count := range []uint64{2, 4, 7} {
		bad := reseal(good, func(h []byte) { binary.LittleEndian.PutUint64(h[16:24], count) })
		if _, err := Decode(bad); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("header count %d over 3 records: got %v, want ErrCheckpointCorrupt", count, err)
		}
	}
}

// TestSaveAtomicReplacement creates a journal over an existing one many
// times and asserts the destination always holds a complete, loadable
// journal of the latest run — and that no temp litter survives.
func TestSaveAtomicReplacement(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	writeSample(t, path)
	for i := 0; i < 20; i++ {
		hash := strings.Repeat("a", i+1)
		j, err := Create(path, KindStudy, hash, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(0, samplePrefix()[0]); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("after create %d: %v", i, err)
		}
		if got.ConfigHash != hash || len(got.Records) != 1 {
			t.Fatalf("after create %d: stale journal visible", i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %d entries in dir", len(entries))
	}
}

func TestRemoveTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Create(path, KindStudy, "deadbeef", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, samplePrefix()[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Discard(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("checkpoint survived Discard")
	}
	j, err = Create(path, KindStudy, "deadbeef", Options{})
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(path)
	if err := j.Discard(); err != nil {
		t.Fatalf("discarding a journal whose file is gone: %v", err)
	}
}

// TestCommitBytesLinear is the linear-cost guard: each commit reports
// exactly the framed size of its own records plus the header rewrite,
// however long the journal already is. A return to rewriting the whole
// prefix per commit fails here.
func TestCommitBytesLinear(t *testing.T) {
	const every = 3
	tele := telemetry.New()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	j, err := Create(path, KindStudy, "deadbeef", Options{Every: every, Telemetry: tele})
	if err != nil {
		t.Fatal(err)
	}
	// framed is a record's on-disk size: frame, type and cell, then the
	// JSON body the encoder terminates with a newline.
	framed := func(it *crawler.Iteration) uint64 {
		body, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(frameSize + recordHead + len(body) + 1)
	}
	prefix := samplePrefix()
	var lastBytes, lastSize uint64
	for commit := 1; commit <= 60; commit++ {
		var want uint64 = headerSize
		for k := 0; k < every; k++ {
			// Vary the records so each commit's size differs.
			it := prefix[(commit*k)%len(prefix)]
			if err := j.Append(0, it); err != nil {
				t.Fatal(err)
			}
			want += framed(it)
		}
		snap := tele.Snapshot()
		if w := snap.Counter("checkpoint_writes"); w != uint64(commit) {
			t.Fatalf("commit %d: %d writes counted", commit, w)
		}
		bytesNow := snap.Counter("checkpoint_bytes")
		if got := bytesNow - lastBytes; got != want {
			t.Fatalf("commit %d reported %d bytes, want %d (its records + header)", commit, got, want)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if grew := uint64(fi.Size()) - lastSize; lastSize > 0 && grew != want-headerSize {
			t.Fatalf("commit %d grew the file by %d bytes, want %d", commit, grew, want-headerSize)
		}
		lastBytes, lastSize = bytesNow, uint64(fi.Size())
	}
	// Closing with nothing pending writes nothing.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if snap := tele.Snapshot(); snap.Counter("checkpoint_bytes") != lastBytes || snap.Counter("checkpoint_writes") != 60 {
		t.Fatal("an empty commit wrote")
	}
}

func TestHashConfigStable(t *testing.T) {
	type digest struct {
		Seed    int64
		Engines []string
		Rates   map[string]float64
	}
	a, err := HashConfig(digest{Seed: 1, Engines: []string{"bing"}, Rates: map[string]float64{"x": 1, "y": 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashConfig(digest{Seed: 1, Engines: []string{"bing"}, Rates: map[string]float64{"y": 2, "x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal configs hash differently")
	}
	c, _ := HashConfig(digest{Seed: 2, Engines: []string{"bing"}})
	if a == c {
		t.Fatal("different configs hash equally")
	}
}

// FuzzDecode throws arbitrary bytes at the journal decoder: it must
// either return a sound state or a typed error — never panic, and never
// return damaged state as if it were sound.
func FuzzDecode(f *testing.F) {
	good := writeSample(f, filepath.Join(f.TempDir(), "seed.ckpt"))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("SACK"))
	f.Add([]byte{})
	// A torn tail: a partial record past the committed length.
	f.Add(append(bytes.Clone(good), frameRaw(payload(recIteration, 0, `{"engine":"bing"}`))[:11]...))
	// A committed null iteration record, as a sweep prefix.
	null := frameRaw(payload(recIteration, 0, "null"))
	j, _ := newJournal("", KindSweep, "hash", Options{})
	j.sealHeader(int64(len(null)), 1)
	f.Add(append(j.hdr[:], null...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if s == nil || (s.Kind != KindStudy && s.Kind != KindSweep) {
			t.Fatal("Decode returned success with invalid state")
		}
		if n := binary.LittleEndian.Uint64(data[16:24]); uint64(len(s.Records)+s.superseded) != n {
			t.Fatalf("decoded %d records and skipped %d, header commits %d", len(s.Records), s.superseded, n)
		}
		for i, r := range s.Records {
			if (r.Iteration == nil) == (r.Result == nil) {
				t.Fatalf("record %d is neither one iteration nor one result", i)
			}
			if r.Iteration != nil && r.Iteration.Engine == "" {
				t.Fatalf("record %d is an empty iteration", i)
			}
		}
	})
}
