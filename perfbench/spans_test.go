package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Name: name, Iter: -1, Start: start, End: end}
}

func TestFoldSelf(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[string]spanTotals
	}{
		{
			name:  "leaf",
			spans: []span{sp(1, 0, "a", 10, 40)},
			want:  map[string]spanTotals{"a": {1, 30, 30}},
		},
		{
			name: "nesting",
			spans: []span{
				sp(1, 0, "a", 0, 100),
				sp(2, 1, "b", 10, 60),
				sp(3, 2, "c", 20, 30),
			},
			want: map[string]spanTotals{
				"a": {1, 100, 50},
				"b": {1, 50, 40},
				"c": {1, 10, 10},
			},
		},
		{
			name: "gaps between children stay with the parent",
			spans: []span{
				sp(1, 0, "a", 0, 100),
				sp(2, 1, "b", 10, 20),
				sp(3, 1, "b", 50, 70),
			},
			want: map[string]spanTotals{
				"a": {1, 100, 70},
				"b": {2, 30, 30},
			},
		},
		{
			name: "parallel children count once",
			spans: []span{
				sp(1, 0, "pool", 0, 100),
				sp(2, 1, "cell", 0, 80),
				sp(3, 1, "cell", 10, 60),
				sp(4, 1, "cell", 70, 90),
			},
			want: map[string]spanTotals{
				"pool": {1, 100, 10},
				"cell": {3, 150, 150},
			},
		},
		{
			name: "child outliving its parent is clipped",
			spans: []span{
				sp(1, 0, "a", 10, 50),
				sp(2, 1, "b", 0, 20),
				sp(3, 1, "b", 40, 90),
			},
			want: map[string]spanTotals{
				"a": {1, 40, 20},
				"b": {2, 70, 70},
			},
		},
		{
			name: "siblings of different names under separate roots",
			spans: []span{
				sp(1, 0, "rep", 0, 10),
				sp(2, 1, "iter", 0, 4),
				sp(3, 1, "add", 4, 9),
				sp(4, 0, "rep", 20, 30),
				sp(5, 4, "iter", 20, 30),
			},
			want: map[string]spanTotals{
				"rep":  {2, 20, 1},
				"iter": {2, 14, 14},
				"add":  {1, 5, 5},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := foldSelf(tc.spans)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d names, want %d: %v", len(got), len(tc.want), got)
			}
			for name, w := range tc.want {
				if got[name] != w {
					t.Errorf("%s: got %+v, want %+v", name, got[name], w)
				}
			}
		})
	}
}

func TestRecorderNestsAndWrites(t *testing.T) {
	r := newRecorder()
	root := r.start("rep", 0, -1)
	child := r.start("crawler.iteration", root, 0)
	time.Sleep(time.Millisecond)
	r.end(child)
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Iter != 0 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	folded := foldSelf(spans)
	if folded["crawler.iteration"].Self < time.Millisecond || folded["rep"].Self > folded["rep"].Total {
		t.Fatalf("unexpected fold %+v", folded)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil || s != spans[1] {
		t.Fatalf("line 2 = %q (%v), want %+v", lines[1], err, spans[1])
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *recorder
	id := r.start("x", 0, -1)
	r.end(id)
	r.add("x", 0, -1, time.Now(), time.Now())
	if id != 0 {
		t.Fatalf("nil recorder returned id %d", id)
	}
}
