package storage

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// linearJar is the reference model the indexed Jar must agree with: one
// flat list scanned in full by every lookup, every expired cookie
// deleted by every Cookies call.
type linearJar struct {
	mode    Mode
	cookies []*StoredCookie
}

func (m *linearJar) set(now time.Time, u *url.URL, firstParty string, cs []*netsim.Cookie) {
	host := strings.ToLower(urlx.Hostname(u.Host))
	for _, c := range cs {
		if c == nil || c.Name == "" {
			continue
		}
		domain, hostOnly := host, true
		if c.Domain != "" {
			d := strings.TrimPrefix(strings.ToLower(c.Domain), ".")
			if urlx.IsPublicSuffix(d) || !domainMatch(host, d) {
				continue
			}
			domain, hostOnly = d, false
		}
		path := c.Path
		if path == "" {
			path = "/"
		}
		partition := ""
		if m.mode == Partitioned || c.Partitioned {
			partition = firstParty
		}
		sc := &StoredCookie{PartitionKey: partition, Domain: domain, HostOnly: hostOnly, Path: path,
			Name: c.Name, Value: c.Value, Expires: c.Expires, Secure: c.Secure, HTTPOnly: c.HTTPOnly,
			SameSite: c.SameSite, Created: now}
		m.cookies = slices.DeleteFunc(m.cookies, func(o *StoredCookie) bool { return sameKey(o, sc) })
		if sc.Expires.IsZero() || sc.Expires.After(now) {
			m.cookies = append(m.cookies, sc)
		}
	}
}

func (m *linearJar) get(now time.Time, u *url.URL, firstParty string, topLevelNav bool) []string {
	if len(m.cookies) == 0 {
		return nil
	}
	m.cookies = slices.DeleteFunc(m.cookies, func(sc *StoredCookie) bool {
		return !sc.Expires.IsZero() && !sc.Expires.After(now)
	})
	host := strings.ToLower(urlx.Hostname(u.Host))
	crossSite := firstParty != "" && urlx.RegistrableDomain(host) != firstParty
	var matched []*StoredCookie
	for _, sc := range m.cookies {
		switch {
		case sc.PartitionKey != "" && sc.PartitionKey != firstParty,
			sc.HostOnly && sc.Domain != host,
			!sc.HostOnly && !domainMatch(host, sc.Domain),
			!pathMatch(u.Path, sc.Path),
			sc.Secure && u.Scheme != "https",
			crossSite && !topLevelNav && sc.SameSite != netsim.SameSiteNone,
			crossSite && topLevelNav && sc.SameSite == netsim.SameSiteStrict:
			continue
		}
		matched = append(matched, sc)
	}
	slices.SortFunc(matched, func(a, b *StoredCookie) int {
		return cmp.Or(
			cmp.Compare(len(b.Path), len(a.Path)),
			a.Created.Compare(b.Created),
			strings.Compare(a.Name, b.Name),
			strings.Compare(a.Domain, b.Domain),
			strings.Compare(a.PartitionKey, b.PartitionKey),
		)
	})
	var out []string
	for _, sc := range matched {
		out = append(out, sc.Domain+"|"+sc.Name+"="+sc.Value)
	}
	return out
}

// TestJarMatchesLinearModel drives the indexed jar and the linear
// reference through the same random operation streams and compares
// every observable: Cookies (order included), Len, All and Get. The
// hosts include domains the embedded suffix list does not know ("uk",
// "xyz") and IP literals, whose domain cookies span several sites.
func TestJarMatchesLinearModel(t *testing.T) {
	hosts := []string{"a.com", "www.a.com", "x.www.a.com", "b.com", "ads.b.com", "shop.co.uk", "www.shop.co.uk",
		"other.co.uk", "a.b.xyz", "c.b.xyz", "q.xyz", "10.0.0.1", "localhost"}
	domains := []string{"", "", "", "a.com", ".a.com", "www.a.com", "b.com", "co.uk", "uk", "shop.co.uk", "xyz", "b.xyz", "com", "0.0.1"}
	paths := []string{"", "/", "/a", "/a/b", "/b"}
	names := []string{"id", "sess", "uid"}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		mode := Mode(seed % 2)
		j, m := NewJar(mode), &linearJar{mode: mode}
		now := t0
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(r.Intn(90)) * time.Second)
			host := hosts[r.Intn(len(hosts))]
			scheme := "https"
			if r.Intn(5) == 0 {
				scheme = "http"
			}
			u := urlx.MustParse(scheme + "://" + host + paths[r.Intn(len(paths))])
			firstParty := urlx.RegistrableDomain(hosts[r.Intn(len(hosts))])
			if r.Intn(2) == 0 {
				c := netsim.NewCookie(names[r.Intn(len(names))], fmt.Sprint(step))
				c.Domain = domains[r.Intn(len(domains))]
				c.Path = paths[r.Intn(len(paths))]
				c.Secure = r.Intn(4) == 0
				c.SameSite = netsim.SameSiteMode(r.Intn(3))
				c.Partitioned = r.Intn(6) == 0
				if r.Intn(3) > 0 {
					c.Expires = now.Add(time.Duration(r.Intn(600)-60) * time.Second)
				}
				j.SetCookies(now, u, firstParty, []*netsim.Cookie{c})
				m.set(now, u, firstParty, []*netsim.Cookie{c})
			} else {
				top := r.Intn(2) == 0
				res := j.Cookies(now, u, firstParty, top)
				want := m.get(now, u, firstParty, top)
				if len(res) != len(want) {
					t.Fatalf("seed %d step %d: Cookies(%s) = %d cookies, want %v", seed, step, u, len(res), want)
				}
				for i, c := range res {
					if !strings.HasSuffix(want[i], "|"+c.Name+"="+c.Value) {
						t.Fatalf("seed %d step %d: Cookies(%s)[%d] = %s=%s, want %s", seed, step, u, i, c.Name, c.Value, want[i])
					}
				}
				// Cookie is the first of a subresource request's
				// cookies with the name.
				for _, name := range names {
					if top {
						continue
					}
					wv, wok := "", false
					for _, w := range want {
						if _, nv, _ := strings.Cut(w, "|"); strings.HasPrefix(nv, name+"=") {
							wv, wok = strings.TrimPrefix(nv, name+"="), true
							break
						}
					}
					if v, ok := j.Cookie(now, u, firstParty, name); v != wv || ok != wok {
						t.Fatalf("seed %d step %d: Cookie(%s, %s) = %q, %v, want %q, %v", seed, step, u, name, v, ok, wv, wok)
					}
				}
			}
			if j.Len() != len(m.cookies) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, j.Len(), len(m.cookies))
			}
		}
		want := make([]StoredCookie, 0, len(m.cookies))
		for _, sc := range m.cookies {
			if sc.Expires.IsZero() || sc.Expires.After(now) {
				want = append(want, *sc)
			}
		}
		slices.SortFunc(want, func(a, b StoredCookie) int {
			return cmp.Or(strings.Compare(a.PartitionKey, b.PartitionKey), strings.Compare(a.Domain, b.Domain),
				strings.Compare(a.Name, b.Name), strings.Compare(a.Path, b.Path))
		})
		if got := j.All(now); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("seed %d: All = %v, want %v", seed, got, want)
		}
		for _, h := range append(hosts, domains...) {
			for _, name := range names {
				var first *StoredCookie
				for _, sc := range m.cookies {
					if sc.Domain == h && sc.Name == name && (first == nil ||
						cmp.Or(strings.Compare(sc.PartitionKey, first.PartitionKey), strings.Compare(sc.Path, first.Path)) < 0) {
						first = sc
					}
				}
				v, ok := j.Get(h, name)
				if ok != (first != nil) || ok && v != first.Value {
					t.Fatalf("seed %d: Get(%s, %s) = %q, %v", seed, h, name, v, ok)
				}
			}
		}
	}
}

// TestCookieOrderTotal: a host-only and a Domain cookie of the same
// name, set by one response, must come back in one order on every
// fresh jar (Request.Cookie returns the first), not in map order.
func TestCookieOrderTotal(t *testing.T) {
	u := urlx.MustParse("https://www.a.com/")
	for i := 0; i < 200; i++ {
		j := NewJar(Flat)
		j.SetCookies(t0, u, "a.com", []*netsim.Cookie{
			netsim.NewCookie("id", "host"),
			netsim.NewCookie("id", "domain").WithDomain("a.com"),
		})
		got := j.Cookies(t0, u, "a.com", true)
		if len(got) != 2 || got[0].Value != "domain" || got[1].Value != "host" {
			t.Fatalf("jar %d: order = %v, want the Domain=a.com cookie first", i, got)
		}
		req := &netsim.Request{Cookies: got}
		if c, _ := req.Cookie("id"); c.Value != "domain" {
			t.Fatalf("jar %d: Request.Cookie = %q", i, c.Value)
		}
	}
	// Same name, domain and path in two partitions (a CHIPS cookie next
	// to an unpartitioned one): the unpartitioned one sorts first.
	for i := 0; i < 50; i++ {
		j := NewJar(Flat)
		chips := netsim.NewCookie("id", "chips")
		chips.Partitioned = true
		j.SetCookies(t0, u, "a.com", []*netsim.Cookie{chips, netsim.NewCookie("id", "flat")})
		got := j.Cookies(t0, u, "a.com", true)
		if len(got) != 2 || got[0].Value != "flat" || got[1].Value != "chips" {
			t.Fatalf("jar %d: partition order = %v", i, got)
		}
	}
}

// benchJar fills a jar the way one crawl iteration does: a dozen sites
// with a few first- and third-party cookies each.
func benchJar() (*Jar, *url.URL) {
	j := NewJar(Flat)
	for s := 0; s < 12; s++ {
		site := fmt.Sprintf("site%d.example", s)
		u := urlx.MustParse("https://www." + site + "/")
		j.SetCookies(t0, u, site, []*netsim.Cookie{
			netsim.NewCookie("sess", "1"),
			netsim.NewCookie("uid", "2").WithDomain(site).WithTTL(t0, time.Hour),
			netsim.NewCookie("pref", "3"),
		})
	}
	return j, urlx.MustParse("https://www.site5.example/page")
}

// TestJarCookiesAllocs gates Jar.Cookies at exactly two allocations for
// a non-empty result (the cookie values and the pointer slice) and none
// for an empty one, however many sites the jar holds.
func TestJarCookiesAllocs(t *testing.T) {
	j, u := benchJar()
	now := t0.Add(time.Minute)
	if got := testing.AllocsPerRun(100, func() { j.Cookies(now, u, "site5.example", true) }); got != 2 {
		t.Errorf("Jar.Cookies allocs = %v, want 2", got)
	}
	miss := urlx.MustParse("https://www.elsewhere.example/")
	if got := testing.AllocsPerRun(100, func() { j.Cookies(now, miss, "elsewhere.example", true) }); got != 0 {
		t.Errorf("Jar.Cookies (no match) allocs = %v, want 0", got)
	}
}

// TestJarCookieAllocs gates Jar.Cookie — the document.cookie lookup
// tracker scripts make — at zero allocations, found or not.
func TestJarCookieAllocs(t *testing.T) {
	j, u := benchJar()
	now := t0.Add(time.Minute)
	if v, ok := j.Cookie(now, u, "site5.example", "uid"); !ok || v != "2" {
		t.Fatalf("Jar.Cookie(uid) = %q, %v, want \"2\", true", v, ok)
	}
	if got := testing.AllocsPerRun(100, func() { j.Cookie(now, u, "site5.example", "uid") }); got != 0 {
		t.Errorf("Jar.Cookie allocs = %v, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { j.Cookie(now, u, "site5.example", "absent") }); got != 0 {
		t.Errorf("Jar.Cookie (no match) allocs = %v, want 0", got)
	}
}

// BenchmarkJarCookies is the cookie-jar row of the per-layer table: one
// lookup against a jar holding a crawl iteration's worth of sites.
func BenchmarkJarCookies(b *testing.B) {
	j, u := benchJar()
	now := t0.Add(time.Minute)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Cookies(now, u, "site5.example", true)
	}
}
