package adtech

import (
	"net/url"
	"slices"
	"sort"
	"strings"

	"searchads/internal/detrand"
	"searchads/internal/urlx"
)

// Campaign is one advertiser's campaign on an ad platform. Its fields
// encode the advertiser-side choices that shape the paper's observations:
// which ad-tech services sit between the click server and the landing
// page (Tables 2/7), whether the platform auto-tags clicks with its click
// ID (Table 6), and extra tracking parameters.
type Campaign struct {
	// ID identifies the campaign.
	ID string
	// Landing is the destination URL (without tracking parameters).
	Landing *url.URL
	// Keywords trigger the ad for matching queries.
	Keywords []string
	// Stack is the ordered list of redirector hosts the click bounces
	// through after the platform's click server (may be empty).
	Stack []string
	// AutoTag makes the platform append its click identifier (GCLID for
	// Google Ads, MSCLKID for Microsoft Advertising) to the landing URL.
	AutoTag bool
	// CrossTagGCLID adds a GCLID via the advertiser's tracking template
	// even on Microsoft's platform (the paper finds GCLIDs in
	// Bing/DuckDuckGo clicks, Table 6).
	CrossTagGCLID bool
	// OtherUIDParam, when non-empty, is an additional user-identifying
	// query parameter the chain appends (affiliate/attribution IDs).
	OtherUIDParam string
	// DirectFromEngine routes the click straight from the engine's own
	// bounce endpoint to the stack/landing, skipping the platform click
	// server — the "qwant.com - destination" (14%) and "startpage.com -
	// google.com - destination" (6%) paths of Table 2.
	DirectFromEngine bool
	// PersistsClickIDs lists the click-ID parameter names the
	// advertiser's landing page persists to first-party storage
	// (§4.3.2).
	PersistsClickIDs []string
}

// LandingDomain returns the campaign's destination site (eTLD+1).
func (c *Campaign) LandingDomain() string {
	return urlx.RegistrableDomain(c.Landing.Host)
}

// Platform models one advertising system.
type Platform struct {
	// Name is "googleads" or "microsoft".
	Name string
	// ClickHost is the click server's hostname (www.googleadservices.com
	// for Google, bing.com for Microsoft — Microsoft serves ad clicks
	// from the engine's own domain).
	ClickHost string
	// ClickPath is the click endpoint path.
	ClickPath string
	// ClickIDParam is the platform's click identifier parameter name.
	ClickIDParam string
	// ClickIDPrefix gives minted IDs their recognisable shape.
	ClickIDPrefix string

	seed detrand.Source
	// seq scopes click-ID minting per requesting client: Google's
	// platform is shared by the google and startpage engines (Microsoft's
	// by bing, duckduckgo, and qwant), so a global counter would make
	// minted IDs depend on how concurrently-crawled engines interleave.
	seq detrand.Seq
}

// GoogleAds returns Google's advertising system ("StartPage relies on
// Google AdSense to show ads").
func GoogleAds(seed detrand.Source) *Platform {
	return &Platform{
		Name:          "googleads",
		ClickHost:     "www.googleadservices.com",
		ClickPath:     "/pagead/aclk",
		ClickIDParam:  "gclid",
		ClickIDPrefix: "Cj0KCQjw",
		seed:          seed.Derive("platform", "googleads"),
	}
}

// MicrosoftAds returns Microsoft's advertising system ("DuckDuckGo and
// Qwant use Microsoft's advertising system").
func MicrosoftAds(seed detrand.Source) *Platform {
	return &Platform{
		Name:          "microsoft",
		ClickHost:     "www.bing.com",
		ClickPath:     "/aclk",
		ClickIDParam:  "msclkid",
		ClickIDPrefix: "",
		seed:          seed.Derive("platform", "microsoft"),
	}
}

// MintClickID returns a fresh click identifier for an impression served
// to client. Click IDs are unique per ad impression — which is exactly
// why the paper's filter (ii) discards per-ad-varying tokens while
// Table 6 still reports GCLID/MSCLKID by name. The stream is keyed by
// (platform seed, client, per-client serial), so values are independent
// of cross-engine request interleaving.
func (p *Platform) MintClickID(client string) string {
	n := p.seq.Next(client)
	if p.ClickIDPrefix != "" {
		return p.ClickIDPrefix + p.seed.Derive("clickid", client).DeriveN("n", n).Token(48, detrand.Base64URLLike)
	}
	return p.seed.Derive("clickid", client).DeriveN("n", n).Token(32, detrand.HexLower)
}

// MintOtherUID mints a value for a campaign's extra UID parameter.
func (p *Platform) MintOtherUID(client string) string {
	n := p.seq.Next(client)
	return p.seed.Derive("otheruid", client).DeriveN("n", n).Token(24, detrand.AlphaNum)
}

// AdClick is one ad impression's click: the decorated landing URL and
// the metadata the engine needs to render the ad element. The engine
// composes the href around FinalLanding: its own hops, the platform
// click server at HopPath(ClickHost), which is ClickPath, and the
// campaign's stack.
type AdClick struct {
	// FinalLanding is the landing URL including appended tracking
	// parameters.
	FinalLanding string
	// ClickID is the minted platform click ID ("" if the campaign does
	// not auto-tag).
	ClickID string
	// Campaign is the underlying campaign.
	Campaign *Campaign
}

// BuildClick decorates the landing URL for one rendered ad impression
// with the click IDs and extra UID parameters the campaign carries,
// set in sorted name order (see urlx.SetParam; a later-minted value
// replaces an earlier one under the same name).
func (p *Platform) BuildClick(c *Campaign, client string) *AdClick {
	click := &AdClick{Campaign: c}
	var params [3]struct{ key, value string }
	n := 0
	set := func(key, value string) {
		for i := range params[:n] {
			if params[i].key == key {
				params[i].value = value
				return
			}
		}
		params[n].key, params[n].value = key, value
		n++
	}
	if c.AutoTag {
		click.ClickID = p.MintClickID(client)
		set(p.ClickIDParam, click.ClickID)
	}
	if c.CrossTagGCLID && p.ClickIDParam != "gclid" {
		seq := p.seq.Next(client)
		set("gclid", "Cj0KCQjw"+p.seed.Derive("crossgclid", client).DeriveN("n", seq).Token(48, detrand.Base64URLLike))
	}
	if c.OtherUIDParam != "" {
		set(c.OtherUIDParam, p.MintOtherUID(client))
	}
	if n == 0 {
		click.FinalLanding = c.Landing.String()
		return click
	}
	slices.SortFunc(params[:n], func(a, b struct{ key, value string }) int { return strings.Compare(a.key, b.key) })
	landing := *c.Landing
	for _, kv := range params[:n] {
		landing.RawQuery = urlx.SetParam(landing.RawQuery, kv.key, kv.value)
	}
	click.FinalLanding = landing.String()
	return click
}

// Pool is the set of campaigns an engine's ad system draws from.
type Pool struct {
	Campaigns []*Campaign
}

// Select returns up to n campaigns for a query: keyword matches first
// (most specific advertisers), then deterministic filler so a SERP always
// carries ads, mirroring how broad-match auctions always fill slots.
func (pool *Pool) Select(query string, n int, seed detrand.Source) []*Campaign {
	if n <= 0 || len(pool.Campaigns) == 0 {
		return nil
	}
	terms := strings.Fields(strings.ToLower(query))
	// Matches first, then the filler, in one slice.
	out := make([]*Campaign, 0, len(pool.Campaigns))
	for _, c := range pool.Campaigns {
		if campaignMatches(c, terms) {
			out = append(out, c)
		}
	}
	rest := out[len(out):]
	for _, c := range pool.Campaigns {
		if !campaignMatches(c, terms) {
			rest = append(rest, c)
		}
	}
	// Deterministic shuffle of the filler, keyed by the query.
	g := seed.Derive("select", query).Rand()
	g.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out = out[:len(out)+len(rest)]
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func campaignMatches(c *Campaign, terms []string) bool {
	for _, k := range c.Keywords {
		for _, t := range terms {
			if k == t {
				return true
			}
		}
	}
	return false
}

// Domains returns the sorted distinct landing domains in the pool.
func (pool *Pool) Domains() []string {
	set := map[string]bool{}
	for _, c := range pool.Campaigns {
		set[c.LandingDomain()] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
