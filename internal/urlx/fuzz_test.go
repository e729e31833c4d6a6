package urlx

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// FuzzQueryPairs: QueryPairs yields exactly the pairs url.ParseQuery
// keeps, in order, with the same unescaping; stopping early stops.
func FuzzQueryPairs(f *testing.F) {
	for _, q := range []string{"", "q=shoes", "q=best+shoes&pos=2", "a=1&a=2&b", "x=%zz&y=1",
		"a=1;b=2&c=3", "k%20ey=v%2Bw", "&&=&", "next=https%3A%2F%2Fa.example%2Fb%3Fc%3Dd"} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got := url.Values{}
		n := 0
		QueryPairs(raw, func(k, v string) bool {
			got[k] = append(got[k], v)
			n++
			return true
		})
		want, _ := url.ParseQuery(raw) // keeps the valid pairs on error
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryPairs(%q) = %v, url.ParseQuery = %v", raw, got, want)
		}
		if n > 0 {
			calls := 0
			QueryPairs(raw, func(string, string) bool { calls++; return false })
			if calls != 1 {
				t.Fatalf("QueryPairs(%q) ran %d callbacks after the first returned false", raw, calls)
			}
		}
	})
}

// FuzzSplitURL: whenever SplitURL claims its split is faithful, url.Parse
// accepts the URL and agrees on host, decoded path and raw query.
func FuzzSplitURL(f *testing.F) {
	for _, u := range []string{"https://a.example/p?q=1", "http://h:8080", "https://h/p#f?x", "https://u@h/",
		"https://[::1]/", "https://h/%41", "https://h:x/", "1http://h/", "https://h?x", "a+b-c.d://h/p"} {
		f.Add(u)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		host, path, query, ok := SplitURL(raw)
		if !ok {
			return
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("SplitURL(%q) ok, url.Parse: %v", raw, err)
		}
		if host != u.Host || path != u.Path || query != u.RawQuery {
			t.Fatalf("SplitURL(%q) = (%q, %q, %q), url.Parse = (%q, %q, %q)", raw, host, path, query, u.Host, u.Path, u.RawQuery)
		}
	})
}

// FuzzAppendQueryEscape: the byte-buffer escape, from a string or from
// bytes, and the builder escape behind AppendQuery all equal
// url.QueryEscape, and QueryLen sizes AppendQuery's output exactly.
func FuzzAppendQueryEscape(f *testing.F) {
	for _, s := range []string{"", "plain", "two words", "https://a.example/b?c=d&e=f", "uniçode✓", "a%b", "~.-_+", "\x00\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := url.QueryEscape(s)
		if got := string(AppendQueryEscape([]byte("x"), s)); got != "x"+want {
			t.Fatalf("AppendQueryEscape(%q) = %q, want x%q", s, got, want)
		}
		if got := string(AppendQueryEscape(nil, []byte(s))); got != want {
			t.Fatalf("AppendQueryEscape([]byte %q) = %q, want %q", s, got, want)
		}
		var b strings.Builder
		AppendQuery(&b, s, s)
		if got := b.String(); got != want+"="+want || QueryLen(s, s) != len(got) {
			t.Fatalf("AppendQuery(%q) = %q, QueryLen %d", s, got, QueryLen(s, s))
		}
	})
}

// FuzzAppendQueryUnescape: the buffer decode equals url.QueryUnescape —
// the same bytes after the existing prefix on success, a refusal with
// the same error (and the prefix untouched) on the same inputs.
func FuzzAppendQueryUnescape(f *testing.F) {
	for _, s := range []string{"", "plain", "+", "a+b", "%2B", "%2b%20x", "%4", "%zz", "%%", "%", "x%4g",
		"uniçode✓", "%C3%A7+%E2%9C%93", "https%3A%2F%2Fa.example%2Fb%3Fc%3Dd"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantErr := url.QueryUnescape(s)
		got, err := AppendQueryUnescape([]byte("pre"), s)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("AppendQueryUnescape(%q) err = %v, url.QueryUnescape err = %v", s, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() || string(got) != "pre" {
				t.Fatalf("AppendQueryUnescape(%q) = (%q, %v), want (\"pre\", %v)", s, got, err, wantErr)
			}
			return
		}
		if string(got) != "pre"+want {
			t.Fatalf("AppendQueryUnescape(%q) = %q, want pre%q", s, got, want)
		}
	})
}
