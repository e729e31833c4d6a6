package serp

import (
	"net/http"
	"testing"
	"time"

	"searchads/internal/adtech"
	"searchads/internal/netsim"
	"searchads/internal/testenv"
	"searchads/internal/urlx"
)

// renderEngine returns a Google engine whose pool fills all AdsPerSERP
// slots with auto-tagged ads, two of them behind a two-hop stack, and a
// results-page request for it that carries no cookies (so every render
// also mints the engine's identifier cookies, as a fresh browser's
// first visit does).
func renderEngine(tb testing.TB) (*Engine, *netsim.Request) {
	_, e := testWorld(tb, Google)
	stack := []string{"clickserve.dartsearch.net", "ad.doubleclick.net"}
	e.Pool = &adtech.Pool{Campaigns: []*adtech.Campaign{
		{ID: "shoes", Landing: urlx.MustParse("https://shoes.example/sale"), Keywords: []string{"shoes"}, AutoTag: true},
		{ID: "hotel", Landing: urlx.MustParse("https://hotel.example/book"), Stack: stack, AutoTag: true},
		{ID: "boots", Landing: urlx.MustParse("https://boots.example/"), Stack: stack, AutoTag: true, OtherUIDParam: "irclickid"},
		{ID: "socks", Landing: urlx.MustParse("https://socks.example/?ref=ad"), AutoTag: true},
	}}
	req := &netsim.Request{
		Method: http.MethodGet,
		URL:    urlx.MustParse(e.SearchURL("running shoes")),
		Type:   netsim.TypeDocument,
		Client: "google-0001",
		Time:   time.Date(2022, 9, 1, 9, 0, 0, 0, time.UTC),
	}
	return e, req
}

// TestSERPRenderAllocs gates one results-page render — organic block,
// four ads with their hrefs, beacons and click IDs, and the engine's
// cookies — at an exact allocation budget.
func TestSERPRenderAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	e, req := renderEngine(t)
	if ads := FindAds(Google, e.serve(req).Page); len(ads) != AdsPerSERP {
		t.Fatalf("rendered %d ads, want %d", len(ads), AdsPerSERP)
	}
	const budget = 72
	if got := testing.AllocsPerRun(50, func() { e.serve(req) }); got != budget {
		t.Errorf("SERP render allocs = %v, want %d", got, budget)
	}
}

// BenchmarkSERPRender is the SERP-rendering row of the per-layer table:
// one results page with four ads.
func BenchmarkSERPRender(b *testing.B) {
	e, req := renderEngine(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.serve(req)
	}
}
