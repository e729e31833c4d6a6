package websim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"searchads/internal/adtech"
	"searchads/internal/advertiser"
	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/serp"
	"searchads/internal/urlx"
	"searchads/internal/workload"
)

// Config parameterises a world build. The zero value is completed by
// defaults in NewWorld.
type Config struct {
	// Seed roots every stochastic choice; identical configs build
	// byte-identical worlds.
	Seed int64
	// Engines lists the engines to crawl (default: all five). The
	// world always *registers* all five — DuckDuckGo's chains need
	// bing.com, StartPage's need google.com.
	Engines []string
	// QueriesPerEngine sizes the query corpus (paper: 500).
	QueriesPerEngine int
	// Calibrations overrides the per-engine defaults (nil entries fall
	// back to defaults).
	Calibrations map[string]EngineCalibration
	// EnableReferrerSmuggling adds a referrer-smuggling ad-tech service
	// to every engine's stack distribution — the §5 extension: UIDs
	// passed through document.referrer instead of query parameters.
	EnableReferrerSmuggling bool
	// Faults arms the network's deterministic failure injection (see
	// netsim.FaultPlan). The zero plan injects nothing and leaves the
	// world byte-identical to one built without it. A zero plan Seed
	// defaults to the world seed, and the botwall interstitial defaults
	// to websim's CAPTCHA challenge page.
	Faults netsim.FaultPlan
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 20221001
	}
	if len(c.Engines) == 0 {
		c.Engines = serp.AllEngineNames()
	}
	if c.QueriesPerEngine == 0 {
		c.QueriesPerEngine = 500
	}
	defaults := defaultCalibrations()
	if c.Calibrations == nil {
		c.Calibrations = defaults
	} else {
		merged := make(map[string]EngineCalibration, len(defaults))
		for k, v := range defaults {
			if override, ok := c.Calibrations[k]; ok {
				merged[k] = override
			} else {
				merged[k] = v
			}
		}
		c.Calibrations = merged
	}
	return c
}

// World is the fully-wired simulated web.
type World struct {
	Net         *netsim.Network
	Cfg         Config
	Seed        detrand.Source
	Engines     map[string]*serp.Engine
	Redirectors *adtech.Registry
	Sites       *advertiser.SiteRegistry
	Trackers    *advertiser.TrackerRegistry
	// Queries holds the per-engine query corpus.
	Queries map[string][]string
	// SitesByEngine records which advertiser sites belong to which
	// engine's pool (diagnostics and tests).
	SitesByEngine map[string][]*advertiser.Site
}

// NewWorld builds and registers the whole ecosystem.
func NewWorld(cfg Config) *World {
	cfg = cfg.withDefaults()
	seed := detrand.New(cfg.Seed)
	w := &World{
		Net:           netsim.NewNetwork(),
		Cfg:           cfg,
		Seed:          seed,
		Engines:       make(map[string]*serp.Engine),
		Queries:       make(map[string][]string),
		SitesByEngine: make(map[string][]*advertiser.Site),
	}

	// 1. Redirector services (Table 4 policies).
	w.Redirectors = adtech.NewRegistry(seed)
	for _, ps := range redirectorPolicies() {
		w.Redirectors.Add(&adtech.Policy{
			Host:          ps.host,
			Wildcard:      ps.wildcard,
			Path:          ps.path,
			UIDCookieProb: ps.uidProb,
			CookieName:    ps.cookie,
			NonUIDCookie:  ps.nonUID,
		})
	}
	if cfg.EnableReferrerSmuggling {
		w.Redirectors.Add(&adtech.Policy{
			Host:               HostRefSync,
			Path:               "/sync",
			UIDCookieProb:      1.0,
			CookieName:         "rsid",
			SmuggleViaReferrer: true,
		})
		// Give every engine's campaigns a slice of referrer-smuggling
		// stacks.
		cals := make(map[string]EngineCalibration, len(cfg.Calibrations))
		for name, cal := range cfg.Calibrations {
			cal.Stacks = append(append([]StackChoice(nil), cal.Stacks...),
				StackChoice{Weight: 10, Stack: []string{HostRefSync}})
			cals[name] = cal
		}
		cfg.Calibrations = cals
		w.Cfg = cfg
	}
	w.Redirectors.Register(w.Net)

	// 2. Platforms.
	googleAds := adtech.GoogleAds(seed)
	microsoftAds := adtech.MicrosoftAds(seed)
	platformFor := func(name string) *adtech.Platform {
		switch name {
		case serp.Google, serp.StartPage:
			return googleAds
		default:
			return microsoftAds
		}
	}

	// 3. Tracker universe: the builtin named services plus per-engine
	// long-tail pools.
	trackerPools := make(map[string][]*advertiser.Tracker)
	allTrackers := advertiser.BuiltinTrackers()
	builtins := allTrackers
	for _, name := range serp.AllEngineNames() {
		cal := cfg.Calibrations[name]
		minted := advertiser.MintUnknownTrackers(seed.Derive("unknown", name), cal.UnknownTrackerPool)
		trackerPools[name] = minted
		allTrackers = append(allTrackers, minted...)
	}
	w.Trackers = advertiser.NewTrackerRegistry(seed, allTrackers)
	w.Trackers.Register(w.Net)

	// 4. Per-engine advertiser pools and campaigns. Behavioural
	// prevalences (stack mix, auto-tagging, clean sites, persistence) are
	// realised as exact pool quotas — largest-remainder counts assigned
	// to a seed-shuffled subset — rather than independent per-campaign
	// coin flips. With pools of only ~60–100 campaigns, i.i.d. sampling
	// put ±5pp of binomial noise on every Table 2/6 rate and made the
	// full-scale reproduction a seed lottery; quota assignment pins the
	// realised pool fractions to the calibration for every seed, leaving
	// only the (intended) crawl-level variance of which ads get clicked.
	usedDomains := make(map[string]bool)
	byEntity := builtinsByEntity(builtins)
	var allSites []*advertiser.Site
	pools := make(map[string]*adtech.Pool)
	products := workload.Products()
	for _, name := range serp.AllEngineNames() {
		cal := cfg.Calibrations[name]
		poolSeed := seed.Derive("pool", name)
		g := poolSeed.Rand()
		r := &g
		n := cal.PoolSize

		choiceIdx := quotaChoices(r, stackWeights(cal.Stacks), n)
		crossTag := quotaBools(r, cal.CrossTagGCLIDProb, n)
		otherUID := quotaBools(r, cal.OtherUIDProb, n)
		clean := quotaBools(r, cal.CleanSiteProb, n)
		persistLS := quotaBools(r, 0.2, n)
		persist := make(map[string][]bool)
		for _, param := range sortedKeys(cal.PersistClickIDProb) {
			persist[param] = quotaBools(r, cal.PersistClickIDProb[param], n)
		}
		// Auto-tagging applies to non-direct campaigns only, so its quota
		// is taken over that subset.
		var nonDirect []int
		for i := 0; i < n; i++ {
			if !cal.Stacks[choiceIdx[i]].Direct {
				nonDirect = append(nonDirect, i)
			}
		}
		autoTag := make([]bool, n)
		for i, on := range quotaBools(r, cal.AutoTagProb, len(nonDirect)) {
			autoTag[nonDirect[i]] = on
		}

		trackers := newTrackerSampler(cal, byEntity, trackerPools[name])
		persistParams := sortedKeys(cal.PersistClickIDProb)

		pool := &adtech.Pool{}
		for i := 0; i < n; i++ {
			domain := mintDomain(r, usedDomains)
			site := &advertiser.Site{
				Domain:      domain,
				LandingPath: "/landing",
			}
			if !clean[i] {
				site.Trackers = trackers.sample(r)
			}
			for _, param := range persistParams {
				if persist[param][i] {
					site.PersistParams = append(site.PersistParams, param)
				}
			}
			site.PersistToLocalStorage = persistLS[i]
			allSites = append(allSites, site)
			w.SitesByEngine[name] = append(w.SitesByEngine[name], site)

			choice := cal.Stacks[choiceIdx[i]]
			campaign := &adtech.Campaign{
				ID:               name + "-" + strconv.Itoa(i),
				Landing:          urlx.MustParse(site.LandingURL()),
				Keywords:         []string{products[r.Intn(len(products))]},
				Stack:            choice.Stack,
				DirectFromEngine: choice.Direct,
				PersistsClickIDs: site.PersistParams,
				AutoTag:          autoTag[i],
				CrossTagGCLID:    crossTag[i],
			}
			if otherUID[i] {
				campaign.OtherUIDParam = otherUIDParams[r.Intn(len(otherUIDParams))]
			}
			pool.Campaigns = append(pool.Campaigns, campaign)
		}
		pools[name] = pool
	}
	w.Sites = advertiser.NewSiteRegistry(seed, allSites)
	w.Sites.Register(w.Net)

	// 5. Engines — all five are always registered.
	for _, name := range serp.AllEngineNames() {
		spec := serp.SpecFor(name)
		e := serp.NewEngine(spec, platformFor(name), pools[name], w.Redirectors, seed)
		e.Beacons = serp.BeaconsFor(name)
		switch name {
		case serp.Bing:
			e.BouncePolicy = &adtech.Policy{
				Host: "www.bing.com", UIDCookieProb: bingBounceUIDProb, CookieName: "MUID",
			}
		case serp.Google:
			e.BouncePolicy = &adtech.Policy{
				Host: "www.google.com", UIDCookieProb: googleBounceUIDProb, CookieName: "NID",
			}
		}
		e.Register(w.Net)
		w.Engines[name] = e
	}

	// 6. Query corpora for the crawled engines.
	for _, name := range cfg.Engines {
		w.Queries[name] = workload.Generate(workload.Mixed, seed.Derive("queries", name), cfg.QueriesPerEngine)
	}

	// 7. Chaos layer: arm deterministic fault injection when configured.
	if !cfg.Faults.IsZero() {
		plan := cfg.Faults
		if plan.Seed == 0 {
			plan.Seed = cfg.Seed
		}
		if plan.Interstitial == nil {
			plan.Interstitial = botwallInterstitial
		}
		if plan.Captcha == nil {
			plan.Captcha = captchaInterstitial
		}
		w.Net.InstallFaults(plan)
	}
	return w
}

// Engine returns the named engine, or nil.
func (w *World) Engine(name string) *serp.Engine { return w.Engines[name] }

func stackWeights(stacks []StackChoice) []float64 {
	ws := make([]float64, len(stacks))
	for i, s := range stacks {
		ws[i] = s.Weight
	}
	return ws
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quotaCounts splits n into per-choice counts proportional to weights
// using largest-remainder rounding; the counts sum to n exactly.
func quotaCounts(weights []float64, n int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if len(weights) == 0 || !(sum > 0) {
		// Mirrors detrand.Pick's contract (which this replaced): zero,
		// negative, or NaN total weight is a calibration error, and
		// int(NaN) would otherwise send the remainder loop spinning.
		panic("websim: quota weights must sum to a positive value")
	}
	counts := make([]int, len(weights))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / sum
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx // deterministic tie-break
	})
	for i := 0; assigned < n; i++ {
		counts[rems[i%len(rems)].idx]++
		assigned++
	}
	return counts
}

// quotaChoices expands quotaCounts into a per-campaign choice index,
// shuffled so the quota'd choices land on a seed-determined subset.
func quotaChoices(r *detrand.Gen, weights []float64, n int) []int {
	counts := quotaCounts(weights, n)
	out := make([]int, 0, n)
	for idx, c := range counts {
		for k := 0; k < c; k++ {
			out = append(out, idx)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// quotaBools returns a shuffled boolean slice of length n with exactly
// round(p*n) true entries.
func quotaBools(r *detrand.Gen, p float64, n int) []bool {
	k := int(p*float64(n) + 0.5)
	if k > n {
		k = n
	}
	out := make([]bool, n)
	for i := 0; i < k; i++ {
		out[i] = true
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// trackerSampler draws one engine's non-clean sites' tracker sets.
type trackerSampler struct {
	cal      EngineCalibration
	byEntity map[string][]*advertiser.Tracker // builtins, by entity
	unknowns []*advertiser.Tracker            // the long-tail pool
	entities []string                         // sorted entity names
	weights  []float64                        // weights[i] weighs entities[i]
}

func newTrackerSampler(cal EngineCalibration, byEntity map[string][]*advertiser.Tracker, unknowns []*advertiser.Tracker) *trackerSampler {
	s := &trackerSampler{cal: cal, byEntity: byEntity, unknowns: unknowns,
		entities: sortedKeys(cal.TrackerEntityWeights)}
	s.weights = make([]float64, len(s.entities))
	for i, e := range s.entities {
		s.weights[i] = cal.TrackerEntityWeights[e]
	}
	return s
}

// sample picks a non-clean site's tracker set: TrackersPerSiteMin..Max
// services drawn by entity weight (Table 5) from the builtin and
// long-tail pools. (Clean sites are assigned by quota in NewWorld
// before this runs.)
func (s *trackerSampler) sample(r randSource) []*advertiser.Tracker {
	span := s.cal.TrackersPerSiteMax - s.cal.TrackersPerSiteMin + 1
	n := s.cal.TrackersPerSiteMin + r.Intn(span)
	picked := make(map[string]bool, n)
	var out []*advertiser.Tracker
	for len(out) < n {
		entity := s.entities[detrand.Pick(r, s.weights)]
		var candidates []*advertiser.Tracker
		if entity == "unknown" {
			candidates = s.unknowns
		} else {
			candidates = s.byEntity[entity]
		}
		if len(candidates) == 0 {
			continue
		}
		t := candidates[r.Intn(len(candidates))]
		if picked[t.Host] {
			// Dedup; with small builtin pools duplicates are common, so
			// treat a repeat as consumed to guarantee termination.
			n--
			continue
		}
		picked[t.Host] = true
		out = append(out, t)
	}
	return out
}

// builtinsByEntity groups the named trackers by their organisation,
// mirroring the Disconnect entity list (package entities).
func builtinsByEntity(builtins []*advertiser.Tracker) map[string][]*advertiser.Tracker {
	m := make(map[string][]*advertiser.Tracker)
	for _, t := range builtins {
		var entity string
		switch {
		case contains(t.Host, "google") || contains(t.Host, "doubleclick"):
			entity = "Google"
		case contains(t.Host, "bing") || contains(t.Host, "clarity"):
			entity = "Microsoft"
		case contains(t.Host, "amazon"):
			entity = "Amazon"
		case contains(t.Host, "facebook"):
			entity = "Facebook"
		case contains(t.Host, "criteo"):
			entity = "Criteo"
		default:
			entity = "unknown"
		}
		m[entity] = append(m[entity], t)
	}
	return m
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// randSource is the subset of *detrand.Gen the samplers use.
type randSource = detrand.Rng

// Brand syllables for advertiser domain minting.
var (
	brandA = []string{
		"nova", "zen", "peak", "true", "pure", "swift", "bold", "prime",
		"ever", "north", "blue", "wild", "terra", "lumen", "aero", "vera",
	}
	brandB = []string{
		"gear", "wear", "home", "tech", "mart", "goods", "lane", "nest",
		"hub", "craft", "store", "supply", "works", "labs", "direct", "base",
	}
)

// mintDomain returns a fresh advertiser domain, unique across the world.
func mintDomain(r randSource, used map[string]bool) string {
	for attempt := 0; ; attempt++ {
		d := brandA[r.Intn(len(brandA))] + brandB[r.Intn(len(brandB))]
		if attempt > 4 {
			d += strconv.Itoa(r.Intn(100))
		}
		domain := d + ".example"
		if !used[domain] {
			used[domain] = true
			return domain
		}
	}
}

// Describe returns a short multi-line summary of the world (used by
// cmd/servesim and diagnostics).
func (w *World) Describe() string {
	s := fmt.Sprintf("simulated web: seed=%d\n", w.Cfg.Seed)
	s += fmt.Sprintf("  engines: %d registered, %d crawled\n", len(w.Engines), len(w.Cfg.Engines))
	s += fmt.Sprintf("  redirector services: %d\n", len(w.Redirectors.Policies()))
	s += fmt.Sprintf("  advertiser sites: %d\n", w.Sites.Sites())
	total := 0
	for _, qs := range w.Queries {
		total += len(qs)
	}
	s += fmt.Sprintf("  queries: %d\n", total)
	return s
}
