package crawler

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"searchads/internal/netsim"
	"searchads/internal/websim"
)

// savedBytes returns the bytes Save writes for ds.
func savedBytes(tb testing.TB, ds *Dataset) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// smallCrawl is a fault-free two-engine crawl.
func smallCrawl(tb testing.TB) *Dataset {
	w := websim.NewWorld(websim.Config{Seed: 61, Engines: []string{"bing", "google"}, QueriesPerEngine: 2})
	return mustRun(tb, Config{World: w})
}

// armsRaceCrawl is a crawl against a lenient adversary on a bot-hostile
// network with the full countermeasure bundle: a version-3 dataset with
// error classes, outcomes, rotations and hop retries.
func armsRaceCrawl(tb testing.TB) *Dataset {
	tb.Helper()
	rates, err := netsim.ProfileRates("bot-hostile", 0.2)
	if err != nil {
		tb.Fatal(err)
	}
	adv, err := netsim.PostureConfig(netsim.PostureLenient)
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := CountermeasureBundle("full")
	if err != nil {
		tb.Fatal(err)
	}
	w := websim.NewWorld(websim.Config{
		Seed: 2, Engines: []string{"bing", "qwant"}, QueriesPerEngine: 6,
		Faults: netsim.FaultPlan{Rates: rates, Adversary: adv},
	})
	return mustRun(tb, Config{World: w, Countermeasures: cm})
}

// hasV3Fields reports whether it carries an error class, an outcome,
// rotations and a retried hop.
func hasV3Fields(it *Iteration) bool {
	return it.ErrorClass != "" && it.Outcome != "" && it.Rotations > 0 &&
		slices.ContainsFunc(it.Hops, func(h HopRecord) bool { return h.Retries > 0 })
}

// TestDecodeCanonicalMatchesEncodingJSON: Save's output of real crawls,
// fault-free and arms-race, decodes on the canonical path to exactly
// what encoding/json decodes.
func TestDecodeCanonicalMatchesEncodingJSON(t *testing.T) {
	arms := armsRaceCrawl(t)
	if !slices.ContainsFunc(arms.Iterations, hasV3Fields) {
		t.Fatal("arms-race crawl has no iteration with every version-3 field")
	}
	for name, ds := range map[string]*Dataset{"small": smallCrawl(t), "arms race": arms} {
		data := savedBytes(t, ds)
		got, ok := decodeCanonical(data)
		if !ok {
			t.Fatalf("%s: canonical decoder declined Save's output", name)
		}
		var want Dataset
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: canonical decode differs from encoding/json", name)
		}
	}
}

// TestDecodeCanonicalSchemaDrift sets every exported field of a Dataset
// and of every record it contains to a non-zero value, strings with an
// escaped '&' and a non-ASCII rune, saves it, and requires the
// canonical decoder to accept the file and agree with encoding/json. A
// field added to the schema without decoder support fails here instead
// of silently sending every load down the slow path.
func TestDecodeCanonicalSchemaDrift(t *testing.T) {
	var ds Dataset
	n := 0
	fillNonZero(t, reflect.ValueOf(&ds).Elem(), &n)
	data := savedBytes(t, &ds)
	if !strings.Contains(string(data), `\u0026`) {
		t.Fatal("saved strings carry no escape")
	}
	got, ok := decodeCanonical(data)
	if !ok {
		t.Fatal("canonical decoder declined a dataset with every field set; does it decode every field?")
	}
	var want Dataset
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatal("canonical decode differs from encoding/json")
	}
	if !reflect.DeepEqual(got, &ds) {
		t.Fatal("canonical decode differs from the dataset saved")
	}
}

// fillNonZero sets v and everything reachable from it to distinct
// non-zero values: two-element slices, one-entry maps, fresh pointers.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d&ü", *n))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), n)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := range 2 {
			fillNonZero(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, key, n)
		fillNonZero(t, elem, n)
		m.SetMapIndex(key, elem)
		v.Set(m)
	case reflect.Struct:
		if v.Type() == reflect.TypeFor[time.Time]() {
			v.Set(reflect.ValueOf(time.Date(2022, 9, 1, 9, 0, *n, 0, time.UTC)))
			return
		}
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fillNonZero: no case for %s; teach it and the canonical decoder the new field", v.Type())
	}
}

// TestDecodeCanonicalDeclines: inputs outside Save's canonical form
// must decline rather than be decoded by guesswork; Load then decodes
// them with encoding/json, which accepts some and refuses others.
func TestDecodeCanonicalDeclines(t *testing.T) {
	for name, in := range map[string]string{
		"unknown key":      `{"seed":1,"extra":0}`,
		"upper-case key":   `{"Seed":1}`,
		"repeated key":     `{"seed":1,"seed":2}`,
		"repeated map key": `{"iterations":[{"serp_requests":[{"cookies":{"a":"1","a":"2"}}]}]}`,
		"fraction":         `{"seed":1.5}`,
		"exponent":         `{"seed":1e3}`,
		"out of range":     `{"seed":9223372036854775808}`,
		"leading zero":     `{"seed":01}`,
		"invalid utf-8":    "{\"storage_mode\":\"\xff\"}",
		"surrogate escape": `{"storage_mode":"\ud83d\ude00"}`,
		"control byte":     "{\"storage_mode\":\"a\tb\"}",
		"wrong type":       `{"seed":"1"}`,
		"syntax error":     `{"seed":1,}`,
		"trailing data":    `{"seed":1} x`,
		"bad time":         `{"created_at":"yesterday"}`,
		"empty":            ``,
	} {
		if _, ok := decodeCanonical([]byte(in)); ok {
			t.Errorf("%s: canonical decoder accepted %q", name, in)
		}
	}
}

// TestDecodeCanonicalAccepts pins the JSON the canonical decoder takes
// beyond Save's exact bytes, each with encoding/json's meaning.
func TestDecodeCanonicalAccepts(t *testing.T) {
	for name, in := range map[string]string{
		"whitespace":     " {\t\"seed\" :\r\n-7 , \"iterations\" : [ ] } \n",
		"escapes":        `{"storage_mode":"\"\\\/\b\f\n\r\t\u0026\u00FC&ü"}`,
		"escaped key":    `{"\u0073eed":3}`,
		"nulls":          `{"version":null,"seed":null,"storage_mode":null,"created_at":null,"filter_annotated":null,"iterations":null}`,
		"null members":   `{"iterations":[{"serp_requests":[null,{"cookies":null}],"hops":[{"set_cookie_names":[null]}],"cookies":null}]}`,
		"empty members":  `{"iterations":[{"serp_requests":[{"cookies":{}}],"hops":[{"set_cookie_names":[]}],"cookies":[]}]}`,
		"null document":  `null`,
		"int64 extremes": `{"seed":-9223372036854775808,"version":9223372036854775807}`,
		"time":           `{"created_at":"2022-09-01T09:00:00.5+02:00"}`,
	} {
		got, ok := decodeCanonical([]byte(in))
		if !ok {
			t.Errorf("%s: canonical decoder declined %q", name, in)
			continue
		}
		var want Dataset
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: canonical decode %+v, encoding/json %+v", name, got, &want)
		}
	}
}

// TestLoadNullIteration: a null iteration is a parse error, on the
// canonical path and on the encoding/json fallback, for an unversioned
// file (which migrate walks) and a version-3 file (which it skips and
// the fold would dereference).
func TestLoadNullIteration(t *testing.T) {
	for _, c := range []struct {
		in        string
		canonical bool
	}{
		{`{"seed":1,"iterations":[null]}`, true},
		{`{"version":3,"seed":1,"iterations":[null]}`, true},
		{`{"Seed":1,"iterations":[null]}`, false},
		{`{"Version":3,"seed":1,"iterations":[null]}`, false},
	} {
		if _, ok := decodeCanonical([]byte(c.in)); ok != c.canonical {
			t.Fatalf("%s: canonical path taken = %v, want %v", c.in, ok, c.canonical)
		}
		ds, err := decode([]byte(c.in))
		if err == nil || !strings.HasPrefix(err.Error(), "crawler: parse dataset: ") {
			t.Fatalf("%s: decode = %v, %v; want a parse error", c.in, ds, err)
		}
	}
}

// FuzzLoad decodes arbitrary bytes. decode must never panic; whenever
// encoding/json accepts the input, decode must return its result after
// migrate, whichever path ran, and a null iteration must be an error;
// whenever encoding/json refuses it, decode must return its error and
// the canonical decoder must have declined.
func FuzzLoad(f *testing.F) {
	// One iteration per crawl keeps the seeds a few KB, small enough for
	// the fuzzer to mutate and minimise quickly.
	small := smallCrawl(f)
	small.Iterations = small.Iterations[:1]
	f.Add(savedBytes(f, small))
	arms := armsRaceCrawl(f)
	i := slices.IndexFunc(arms.Iterations, hasV3Fields)
	if i < 0 {
		f.Fatal("arms-race crawl has no iteration with every version-3 field")
	}
	arms.Iterations = arms.Iterations[i : i+1]
	f.Add(savedBytes(f, arms))
	f.Add([]byte(`{"seed":1,"iterations":[null]}`))
	f.Add([]byte(`{"seed":1,"seed":2,"iterations":[]}`))
	f.Add([]byte(`{"SEED":1,"Iterations":[{"Engine":"bing"}]}`))
	f.Add([]byte(`{"iterations":[{"query":"café & crème","final_url":"https://x.example/?a=1&b=ü"}]}`))
	f.Add([]byte(`{"seed":1,"iterations":[]}garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decode(data)
		_, canonical := decodeCanonical(data)
		var want Dataset
		if refErr := json.Unmarshal(data, &want); refErr != nil {
			if canonical {
				t.Fatalf("canonical decoder accepted what encoding/json refuses: %v", refErr)
			}
			if err == nil || err.Error() != "crawler: parse dataset: "+refErr.Error() {
				t.Fatalf("decode error = %v, want encoding/json's %v", err, refErr)
			}
			return
		}
		if slices.Contains(want.Iterations, nil) {
			if err == nil {
				t.Fatal("a null iteration decoded without error")
			}
			return
		}
		if err != nil {
			t.Fatalf("decode refused what encoding/json accepts: %v", err)
		}
		want.migrate()
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("decode (canonical path %v) differs from encoding/json", canonical)
		}
	})
}

// BenchmarkLoad measures the crawler.load layer on a 60-query ×
// 5-engine dataset: Load as shipped, and the same bytes through
// encoding/json alone for reference.
func BenchmarkLoad(b *testing.B) {
	w := websim.NewWorld(websim.Config{Seed: 63, QueriesPerEngine: 60})
	ds := mustRun(b, Config{World: w})
	path := filepath.Join(b.TempDir(), "ds.json")
	if err := ds.Save(path); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Load", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			var d Dataset
			if err := json.Unmarshal(data, &d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
