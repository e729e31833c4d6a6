package adtech

import (
	"math/rand"
	"net/url"
	"slices"
	"testing"

	"searchads/internal/detrand"
	"searchads/internal/testenv"
	"searchads/internal/urlx"
)

// netURLChain is the reference BuildChain is held to: every level a
// url.URL rendered by net/url, its next= value url.QueryEscape'd.
func netURLChain(hops []string, landing string) string {
	next := landing
	for i := len(hops) - 1; i >= 0; i-- {
		u := &url.URL{Scheme: "https", Host: hops[i], Path: HopPath(hops[i]),
			RawQuery: NextParam + "=" + url.QueryEscape(next)}
		next = u.String()
	}
	return next
}

// chainHosts is every host with a documented bounce path, a wildcard
// subdomain, and a host served at the default path.
func chainHosts() []string {
	hosts := []string{"6102.xg4ken.com", "unknown.example"}
	for h := range hopPaths {
		hosts = append(hosts, h)
	}
	slices.Sort(hosts)
	return hosts
}

// TestBuildChainMatchesNetURL: the byte-buffer builder renders every
// chain exactly as net/url renders the same nesting, for every known
// hop and landing URLs with queries, escapes, fragments and non-ASCII.
func TestBuildChainMatchesNetURL(t *testing.T) {
	hosts := chainHosts()
	landings := []string{
		"https://shop.example/",
		"https://shop.example/land?gclid=Cj0K+Qj/W&dl=a%20b",
		"https://www.shop.example.co.uk/p%20q?x=1#frag",
		"https://hotel.example/book?q=ü&msclkid=0f",
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		hops := make([]string, r.Intn(6))
		for j := range hops {
			hops[j] = hosts[r.Intn(len(hosts))]
		}
		landing := landings[i%len(landings)]
		if got, want := BuildChain(hops, landing), netURLChain(hops, landing); got != want {
			t.Fatalf("BuildChain(%v, %q)\n got %s\nwant %s", hops, landing, got, want)
		}
	}
}

// TestBuildClickMatchesWithParam: the decorated landing string equals
// the old construction (copy the landing URL, set each parameter with
// WithParam in sorted name order, render), including landing URLs that
// already carry one of the parameters, and campaigns whose extra
// parameter collides with a click-ID name.
func TestBuildClickMatchesWithParam(t *testing.T) {
	landings := []string{
		"https://shoes.example/sale",
		"https://shoes.example/sale?utm=1",
		"https://shoes.example/sale?gclid=old&z=2#top",
		"https://shoes.example/p%20q?msclkid=old",
		"https://shoes.example/?",
	}
	campaigns := []Campaign{
		{},
		{AutoTag: true},
		{AutoTag: true, CrossTagGCLID: true},
		{AutoTag: true, CrossTagGCLID: true, OtherUIDParam: "irclickid"},
		{OtherUIDParam: "aff id"},
		{AutoTag: true, OtherUIDParam: "msclkid"},
		{AutoTag: true, CrossTagGCLID: true, OtherUIDParam: "gclid"},
	}
	for _, mk := range []func(detrand.Source) *Platform{GoogleAds, MicrosoftAds} {
		p, ref := mk(detrand.New(11)), mk(detrand.New(11))
		for _, landing := range landings {
			for _, c := range campaigns {
				c.Landing = urlx.MustParse(landing)
				click := p.BuildClick(&c, "client-1")

				params := map[string]string{}
				if c.AutoTag {
					params[ref.ClickIDParam] = ref.MintClickID("client-1")
				}
				if c.CrossTagGCLID && ref.ClickIDParam != "gclid" {
					n := ref.seq.Next("client-1")
					params["gclid"] = "Cj0KCQjw" + ref.seed.Derive("crossgclid", "client-1").DeriveN("n", n).Token(48, detrand.Base64URLLike)
				}
				if c.OtherUIDParam != "" {
					params[c.OtherUIDParam] = ref.MintOtherUID("client-1")
				}
				want := urlx.MustParse(landing)
				keys := make([]string, 0, len(params))
				for k := range params {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				for _, k := range keys {
					want = urlx.WithParam(want, k, params[k])
				}
				if click.FinalLanding != want.String() {
					t.Fatalf("%s %+v on %q:\n got %s\nwant %s", p.Name, c, landing, click.FinalLanding, want)
				}
			}
		}
	}
}

// TestChainAllocs gates one ad href at exactly one allocation — the
// finished string — however deep the chain.
func TestChainAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	hops := []string{"www.googleadservices.com", "clickserve.dartsearch.net", "ad.doubleclick.net", "6102.xg4ken.com"}
	landing := "https://shoes.example/sale?gclid=Cj0KCQjwabc"
	if got := testing.AllocsPerRun(100, func() { BuildChain(hops, landing) }); got != 1 {
		t.Errorf("BuildChain allocs = %v, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { BuildChain(nil, landing) }); got != 0 {
		t.Errorf("BuildChain (no hops) allocs = %v, want 0", got)
	}
}

// BenchmarkChain is the ad-tech chain row of the per-layer table: one
// four-hop ad href.
func BenchmarkChain(b *testing.B) {
	hops := []string{"www.googleadservices.com", "clickserve.dartsearch.net", "ad.doubleclick.net", "6102.xg4ken.com"}
	landing := "https://shoes.example/sale?gclid=Cj0KCQjwabc"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildChain(hops, landing)
	}
}
