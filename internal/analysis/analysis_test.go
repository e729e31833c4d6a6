package analysis

import (
	"context"
	"strings"
	"testing"

	"searchads/internal/crawler"
	"searchads/internal/websim"
)

// runCrawl runs a moderate crawl once and shares it across tests.
var sharedReport *Report

var sharedDataset *crawler.Dataset

func report(t testing.TB) (*Report, *crawler.Dataset) {
	t.Helper()
	if sharedReport == nil {
		w := websim.NewWorld(websim.Config{Seed: 99, QueriesPerEngine: 60})
		var err error
		sharedDataset, err = crawler.New(crawler.Config{World: w, Iterations: 60}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sharedReport = Analyze(sharedDataset)
	}
	return sharedReport, sharedDataset
}

func TestPathOf(t *testing.T) {
	it := &crawler.Iteration{
		Engine: "duckduckgo",
		Hops: []crawler.HopRecord{
			{URL: "https://duckduckgo.com/y.js?next=x", Status: 302},
			{URL: "https://www.bing.com/aclk?next=y", Status: 302},
			{URL: "https://clickserve.dartsearch.net/link/click?next=z", Status: 302},
			{URL: "https://ad.doubleclick.net/ddm/clk?next=w", Status: 302},
			{URL: "https://shoes.example/landing?msclkid=m", Status: 200},
		},
		FinalURL: "https://shoes.example/landing?msclkid=m",
	}
	p := PathOf(it)
	wantSites := []string{"duckduckgo.com", "bing.com", "dartsearch.net", "doubleclick.net", "shoes.example"}
	if len(p.Sites) != len(wantSites) {
		t.Fatalf("sites = %v", p.Sites)
	}
	for i := range wantSites {
		if p.Sites[i] != wantSites[i] {
			t.Fatalf("sites = %v, want %v", p.Sites, wantSites)
		}
	}
	reds := p.Redirectors()
	wantReds := []string{"bing.com", "clickserve.dartsearch.net", "ad.doubleclick.net"}
	for i := range wantReds {
		if reds[i] != wantReds[i] {
			t.Fatalf("redirectors = %v, want %v", reds, wantReds)
		}
	}
	if p.Key() != "duckduckgo.com - bing.com - clickserve.dartsearch.net - ad.doubleclick.net - destination" {
		t.Fatalf("key = %q", p.Key())
	}
	if p.DestinationSite() != "shoes.example" {
		t.Fatalf("dest = %q", p.DestinationSite())
	}
	sites := p.PathSitesWithoutDestination()
	if sites[0] != "duckduckgo.com" || len(sites) != 4 {
		t.Fatalf("path sites = %v", sites)
	}
}

func TestPathCollapsesSameSite(t *testing.T) {
	it := &crawler.Iteration{
		Engine: "qwant",
		Hops: []crawler.HopRecord{
			{URL: "https://api.qwant.com/v3/redirect?next=x", Status: 302},
			{URL: "https://www.bing.com/aclk?next=y", Status: 302},
			{URL: "https://dest.example/", Status: 200},
		},
	}
	p := PathOf(it)
	want := []string{"qwant.com", "bing.com", "dest.example"}
	for i := range want {
		if p.Sites[i] != want[i] {
			t.Fatalf("sites = %v, want %v", p.Sites, want)
		}
	}
	// api.qwant.com collapsed into the origin's qwant.com entry.
	if p.Hosts[0] != "qwant.com" {
		t.Fatalf("hosts = %v", p.Hosts)
	}
}

func TestCDF(t *testing.T) {
	cdf := NewCDF([]int{0, 0, 0, 1, 2})
	if cdf.At(0) != 0.6 || cdf.At(1) != 0.8 || cdf.At(2) != 1.0 || cdf.At(5) != 1.0 {
		t.Fatalf("cdf = %+v", cdf)
	}
	if cdf.At(-1) != 0 {
		t.Fatal("negative k must be 0")
	}
	empty := NewCDF(nil)
	if empty.At(3) != 0 {
		t.Fatal("empty CDF must be 0")
	}
}

func TestMedian(t *testing.T) {
	if Median([]int{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]int{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	if MedianFloat([]float64{0.9, 1.0, 0.97}) != 0.97 {
		t.Fatal("float median")
	}
}

func TestBeforeClick(t *testing.T) {
	r, _ := report(t)
	// §4.1.1: traditional engines store identifiers, private ones don't.
	for _, e := range []string{"bing", "google"} {
		if !r.Before[e].StoresUserIDs {
			t.Errorf("%s should store user IDs, keys=%v", e, r.Before[e].IdentifierKeys)
		}
	}
	for _, e := range []string{"duckduckgo", "startpage", "qwant"} {
		if r.Before[e].StoresUserIDs {
			t.Errorf("%s must not store user IDs, keys=%v", e, r.Before[e].IdentifierKeys)
		}
	}
	// §4.1.2: zero SERP requests to known trackers, for every engine.
	for e, res := range r.Before {
		if res.TrackerRequests != 0 {
			t.Errorf("%s: %d tracker requests on SERP, want 0", e, res.TrackerRequests)
		}
		if res.TotalRequests == 0 {
			t.Errorf("%s: no SERP requests recorded", e)
		}
	}
}

func TestNavigationTrackingFractions(t *testing.T) {
	r, _ := report(t)
	// Paper: 4% Bing, 100% Google, 100% DDG, 86% Qwant, 100% StartPage.
	checks := []struct {
		engine   string
		min, max float64
	}{
		{"bing", 0.0, 0.15},
		{"google", 1.0, 1.0},
		{"duckduckgo", 1.0, 1.0},
		{"startpage", 1.0, 1.0},
		{"qwant", 0.70, 0.95},
	}
	for _, c := range checks {
		got := r.During[c.engine].NavTrackingFraction
		if got < c.min || got > c.max {
			t.Errorf("%s nav tracking = %.2f, want in [%.2f, %.2f]", c.engine, got, c.min, c.max)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	r, _ := report(t)
	// Bing: ~96% of clicks bounce through no redirector.
	if got := r.During["bing"].RedirectorCDF.At(0); got < 0.85 {
		t.Errorf("bing P(X<=0) = %.2f, want >= 0.85", got)
	}
	// StartPage: ~93% of clicks visit >= 2 other sites.
	if got := r.During["startpage"].RedirectorCDF.At(1); got > 0.30 {
		t.Errorf("startpage P(X<=1) = %.2f, want <= 0.30", got)
	}
	// DDG: most clicks see exactly one redirector (bing.com).
	ddg := r.During["duckduckgo"].RedirectorCDF
	if frac := ddg.At(1) - ddg.At(0); frac < 0.6 {
		t.Errorf("ddg P(X=1) = %.2f, want >= 0.6", frac)
	}
}

func TestTable2TopPaths(t *testing.T) {
	r, _ := report(t)
	top := func(e string) string {
		paths := r.During[e].TopPaths
		if len(paths) == 0 {
			t.Fatalf("%s has no paths", e)
		}
		return paths[0].Label
	}
	if got := top("bing"); got != "bing.com - destination" {
		t.Errorf("bing top path = %q", got)
	}
	if got := top("google"); got != "google.com - googleadservices.com - destination" {
		t.Errorf("google top path = %q", got)
	}
	if got := top("duckduckgo"); got != "duckduckgo.com - bing.com - destination" {
		t.Errorf("ddg top path = %q", got)
	}
	if got := top("startpage"); got != "startpage.com - google.com - googleadservices.com - destination" {
		t.Errorf("startpage top path = %q", got)
	}
	if got := top("qwant"); got != "qwant.com - bing.com - destination" {
		t.Errorf("qwant top path = %q", got)
	}
}

func TestTable3Organisations(t *testing.T) {
	r, _ := report(t)
	// Microsoft in 100% of Bing paths; Google in 100% of Google and
	// StartPage paths; Microsoft in 100% of DDG paths (via bing.com).
	cases := []struct {
		engine, org string
		min         float64
	}{
		{"bing", "Microsoft", 1.0},
		{"google", "Google", 1.0},
		{"duckduckgo", "DuckDuckGo", 1.0},
		{"duckduckgo", "Microsoft", 1.0},
		{"startpage", "StartPage", 1.0},
		{"startpage", "Google", 1.0},
		{"qwant", "Qwant", 1.0},
		{"qwant", "Microsoft", 0.7},
	}
	for _, c := range cases {
		if got := r.During[c.engine].OrgFractions[c.org]; got < c.min {
			t.Errorf("%s: %s fraction = %.2f, want >= %.2f", c.engine, c.org, got, c.min)
		}
	}
	// Google must NOT be in (almost all) Bing paths.
	if got := r.During["bing"].OrgFractions["Google"]; got > 0.15 {
		t.Errorf("bing Google fraction = %.2f, want small", got)
	}
}

func TestTable4UIDRedirectors(t *testing.T) {
	r, _ := report(t)
	find := func(e, host string) float64 {
		for _, f := range r.During[e].UIDRedirectors {
			if f.Label == host {
				return f.Fraction
			}
		}
		return 0
	}
	// google.com identifies StartPage users in ~100% of clicks.
	if got := find("startpage", "google.com"); got < 0.95 {
		t.Errorf("startpage google.com UID rate = %.2f", got)
	}
	// googleadservices identifies Google users in ~97%.
	if got := find("google", "googleadservices.com"); got < 0.85 {
		t.Errorf("google googleadservices UID rate = %.2f", got)
	}
	// bing.com identifies DDG users in ~94%.
	if got := find("duckduckgo", "bing.com"); got < 0.80 {
		t.Errorf("ddg bing.com UID rate = %.2f", got)
	}
	// Bing's own paths: almost no UID-storing redirectors.
	var bingTotal float64
	for _, f := range r.During["bing"].UIDRedirectors {
		bingTotal += f.Fraction
	}
	if bingTotal > 0.15 {
		t.Errorf("bing UID-redirector mass = %.2f, want tiny", bingTotal)
	}
}

func TestFigure5Shape(t *testing.T) {
	r, _ := report(t)
	// Bing: ~0 redirectors storing UID cookies for nearly all clicks.
	if got := r.During["bing"].UIDRedirectorCDF.At(0); got < 0.85 {
		t.Errorf("bing P(uid<=0) = %.2f", got)
	}
	// StartPage: at least one (google.com) for ~all clicks.
	if got := r.During["startpage"].UIDRedirectorCDF.At(0); got > 0.10 {
		t.Errorf("startpage P(uid<=0) = %.2f, want ~0", got)
	}
}

func TestSec431DestinationTrackers(t *testing.T) {
	r, _ := report(t)
	for e, a := range r.After {
		if a.PagesWithTrackers < 0.80 || a.PagesWithTrackers > 1.0 {
			t.Errorf("%s pages-with-trackers = %.2f, want ~0.93", e, a.PagesWithTrackers)
		}
		if a.DistinctTrackers < 20 {
			t.Errorf("%s distinct trackers = %d", e, a.DistinctTrackers)
		}
		if a.MedianTrackersPerPage < 3 || a.MedianTrackersPerPage > 16 {
			t.Errorf("%s median trackers = %.1f", e, a.MedianTrackersPerPage)
		}
	}
	// Google destinations have the highest median (11), DDG/Qwant the
	// lowest (6).
	if r.After["google"].MedianTrackersPerPage <= r.After["duckduckgo"].MedianTrackersPerPage {
		t.Error("google median should exceed duckduckgo median")
	}
}

func TestTable5Entities(t *testing.T) {
	r, _ := report(t)
	share := func(e, org string) float64 {
		for _, f := range r.After[e].TopEntities {
			if f.Label == org {
				return f.Fraction
			}
		}
		return 0
	}
	// Google is the top named entity on StartPage destinations (36%).
	if got := share("startpage", "Google"); got < 0.20 {
		t.Errorf("startpage Google tracker share = %.2f", got)
	}
	// Amazon is prominent on Qwant destinations (23.4%).
	if got := share("qwant", "Amazon"); got < 0.10 {
		t.Errorf("qwant Amazon tracker share = %.2f", got)
	}
	// unknown long tail is present everywhere.
	for _, e := range []string{"bing", "google", "duckduckgo", "startpage", "qwant"} {
		if got := share(e, "unknown"); got < 0.10 {
			t.Errorf("%s unknown tracker share = %.2f", e, got)
		}
	}
}

func TestTable6UIDSmuggling(t *testing.T) {
	r, _ := report(t)
	type bounds struct{ lo, hi float64 }
	cases := map[string]struct{ ms, gc bounds }{
		"bing":       {ms: bounds{0.6, 0.95}, gc: bounds{0.03, 0.30}},
		"google":     {ms: bounds{0, 0}, gc: bounds{0.80, 1.0}},
		"duckduckgo": {ms: bounds{0.45, 0.85}, gc: bounds{0.03, 0.30}},
		"startpage":  {ms: bounds{0, 0}, gc: bounds{0.80, 1.0}},
		"qwant":      {ms: bounds{0.30, 0.70}, gc: bounds{0.01, 0.25}},
	}
	for e, c := range cases {
		a := r.After[e]
		if a.MSCLKID < c.ms.lo || a.MSCLKID > c.ms.hi {
			t.Errorf("%s MSCLKID = %.2f, want [%.2f, %.2f]", e, a.MSCLKID, c.ms.lo, c.ms.hi)
		}
		if a.GCLID < c.gc.lo || a.GCLID > c.gc.hi {
			t.Errorf("%s GCLID = %.2f, want [%.2f, %.2f]", e, a.GCLID, c.gc.lo, c.gc.hi)
		}
		if a.AnyUID < a.MSCLKID || a.AnyUID < a.GCLID {
			t.Errorf("%s AnyUID = %.2f below component rates", e, a.AnyUID)
		}
	}
}

func TestSec432Persistence(t *testing.T) {
	r, _ := report(t)
	// MSCLKID persisted: Bing ~15%, DDG ~17%, Qwant ~1%.
	if got := r.After["bing"].PersistedMSCLKID; got < 0.05 || got > 0.35 {
		t.Errorf("bing persisted MSCLKID = %.2f", got)
	}
	if got := r.After["qwant"].PersistedMSCLKID; got > 0.10 {
		t.Errorf("qwant persisted MSCLKID = %.2f, want ~0.01", got)
	}
	// GCLID cookie: Google ~10%, StartPage ~13%.
	if got := r.After["google"].PersistedGCLID; got < 0.02 || got > 0.30 {
		t.Errorf("google persisted GCLID = %.2f", got)
	}
	// Persistence never exceeds arrival.
	for e, a := range r.After {
		if a.PersistedMSCLKID > a.MSCLKID+1e-9 || a.PersistedGCLID > a.GCLID+1e-9 {
			t.Errorf("%s persistence exceeds arrival", e)
		}
	}
}

func TestRecorderCoverage(t *testing.T) {
	r, _ := report(t)
	for e, cov := range r.RecorderCoverage {
		if cov < 0.90 || cov > 1.0 {
			t.Errorf("%s recorder coverage = %.3f, want ~0.97", e, cov)
		}
	}
}

func TestTokenFunnel(t *testing.T) {
	r, _ := report(t)
	if r.Funnel.TotalTokens < 500 {
		t.Fatalf("token funnel too small: %d", r.Funnel.TotalTokens)
	}
	if r.Funnel.UserIDs == 0 {
		t.Fatal("no user identifiers found")
	}
	if r.Funnel.UserIDs >= r.Funnel.TotalTokens {
		t.Fatal("funnel did not discard anything")
	}
	// Every filter stage fires on a real crawl.
	for reason, n := range r.Funnel.ByReason {
		if n == 0 {
			t.Errorf("reason %s never fired", reason)
		}
	}
}

func TestBeaconSummaries(t *testing.T) {
	r, _ := report(t)
	find := func(e, substr string) *BeaconSummary {
		for i := range r.During[e].Beacons {
			if strings.Contains(r.During[e].Beacons[i].Endpoint, substr) {
				return &r.During[e].Beacons[i]
			}
		}
		return nil
	}
	glp := find("bing", "GLinkPingPost")
	if glp == nil || !glp.CarriesDestURL || glp.WithUIDCookie == 0 {
		t.Fatalf("bing GLinkPingPost summary = %+v", glp)
	}
	spcl := find("startpage", "/sp/cl")
	if spcl == nil || spcl.CarriesDestURL || spcl.WithUIDCookie != 0 {
		t.Fatalf("startpage sp/cl summary = %+v", spcl)
	}
	ddg := find("duckduckgo", "improving.duckduckgo.com")
	if ddg == nil || !ddg.CarriesDestURL || ddg.WithUIDCookie != 0 {
		t.Fatalf("ddg improving summary = %+v", ddg)
	}
}

func TestTable1(t *testing.T) {
	r, ds := report(t)
	for e, row := range r.Table1 {
		if row.Queries != 60 {
			t.Errorf("%s queries = %d", e, row.Queries)
		}
		if row.DistinctDestinations < 30 {
			t.Errorf("%s destinations = %d, want close to iteration count", e, row.DistinctDestinations)
		}
		if row.DistinctPaths < row.DistinctDestinations {
			t.Errorf("%s paths (%d) < destinations (%d)", e, row.DistinctPaths, row.DistinctDestinations)
		}
	}
	_ = ds
}

func TestRenderContainsAllSections(t *testing.T) {
	r, _ := report(t)
	out := r.Render()
	for _, want := range []string{
		"Table 1", "Sec 4.1", "Sec 4.2.1", "Figure 4", "Table 2",
		"Table 3", "Figure 5", "Table 4", "Table 7", "Sec 4.3.1",
		"Table 5", "Table 6", "Sec 4.3.2", "Sec 3.1", "Sec 3.2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing section %q", want)
		}
	}
	if len(out) < 2000 {
		t.Fatalf("render too short: %d bytes", len(out))
	}
}
