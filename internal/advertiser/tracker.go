// Package advertiser implements the destination side of an ad click: the
// advertisers' landing sites and the third-party trackers they embed.
// The paper finds that "93% of ads destination pages ... included tracker
// and privacy-harming resources" (§4.3.1) and that advertisers persist
// the click IDs they receive in first-party storage (§4.3.2); both
// behaviours are produced here.
package advertiser

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// Tracker is one third-party tracking service embedded on landing pages.
type Tracker struct {
	// Host serves the tracker's script and pixel.
	Host string
	// ScriptPath is the analytics script resource.
	ScriptPath string
	// PixelPath is the collection endpoint's path (image/XHR), without
	// a query: the script writes its own.
	PixelPath string
	// SetsFirstPartyCookie makes the script plant an ID in the embedding
	// page's first-party storage (the pattern of §6's "first-party
	// cookies set by third-party javascript").
	SetsFirstPartyCookie bool
	// FirstPartyCookieName is that cookie's name (e.g. "_ga").
	FirstPartyCookieName string
	// SetsThirdPartyCookie makes the pixel response carry a SameSite=None
	// identifier cookie under the tracker's own domain.
	SetsThirdPartyCookie bool
	// ReadsSmuggledUIDs makes the script read click-ID query parameters
	// (gclid, msclkid) off the landing URL and forward them on its
	// phone-home request — the "UID smuggling lets redirectors
	// aggregate activity on destination sites" behaviour of §4.3.
	ReadsSmuggledUIDs bool
}

// ScriptURL returns the tracker's script resource URL.
func (t *Tracker) ScriptURL() string { return "https://" + t.Host + t.ScriptPath }

// PixelURL returns the tracker's pixel URL.
func (t *Tracker) PixelURL() string { return "https://" + t.Host + t.PixelPath }

// BuiltinTrackers returns the named tracker services of Table 5 (Google,
// Microsoft, Amazon, Facebook, Criteo properties).
func BuiltinTrackers() []*Tracker {
	return []*Tracker{
		{Host: "www.google-analytics.com", ScriptPath: "/analytics.js", PixelPath: "/collect",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_ga", ReadsSmuggledUIDs: true},
		{Host: "www.googletagmanager.com", ScriptPath: "/gtm.js", PixelPath: "/collect",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_gcl_au"},
		{Host: "stats.g.doubleclick.net", ScriptPath: "/dc.js", PixelPath: "/r/collect",
			SetsThirdPartyCookie: true},
		{Host: "pagead2.googlesyndication.com", ScriptPath: "/pagead/js/adsbygoogle.js", PixelPath: "/pagead/gen_204",
			SetsThirdPartyCookie: true},
		{Host: "bat.bing.com", ScriptPath: "/bat.js", PixelPath: "/action/0",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_uetvid", ReadsSmuggledUIDs: true},
		{Host: "www.clarity.ms", ScriptPath: "/tag/abc123", PixelPath: "/collect",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_clck"},
		{Host: "s.amazon-adsystem.com", ScriptPath: "/iu3", PixelPath: "/px",
			SetsThirdPartyCookie: true},
		{Host: "c.amazon-adsystem.com", ScriptPath: "/aax2/apstag.js", PixelPath: "/bh",
			SetsThirdPartyCookie: true},
		{Host: "connect.facebook.net", ScriptPath: "/en_US/fbevents.js", PixelPath: "/tr",
			SetsFirstPartyCookie: true, FirstPartyCookieName: "_fbp"},
		{Host: "dis.criteo.com", ScriptPath: "/dis/usersync.js", PixelPath: "/dis/dis.gif",
			SetsThirdPartyCookie: true},
		{Host: "sslwidget.criteo.com", ScriptPath: "/event", PixelPath: "/event.gif",
			SetsThirdPartyCookie: true},
	}
}

// unknownWords seed the minted long-tail tracker hostnames.
var unknownWords = []string{
	"metric", "pixel", "track", "stat", "beacon", "quant", "tag", "session",
	"heat", "funnel", "count", "audience", "vector", "signal", "panel",
	"scope", "pulse", "lens", "orbit", "prism",
}

// MintUnknownTrackers generates n long-tail tracker services on
// *.example domains. Their hostnames follow the "-analytics." pattern
// and their endpoints use /pixel and /collect paths, so the embedded
// generic EasyPrivacy rules detect them while the entity list does not —
// they form the "unknown" rows of Tables 3 and 5.
func MintUnknownTrackers(seed detrand.Source, n int) []*Tracker {
	g := seed.Derive("unknown-trackers").Rand()
	r := &g
	out := make([]*Tracker, 0, n)
	used := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		w1 := unknownWords[r.Intn(len(unknownWords))]
		w2 := unknownWords[r.Intn(len(unknownWords))]
		host := w1 + w2 + "-analytics.example"
		if i%3 == 0 {
			host = "cdn." + host
		}
		for used[host] {
			host = w1 + w2 + strconv.Itoa(r.Intn(10000)) + "-analytics.example"
		}
		used[host] = true
		out = append(out, &Tracker{
			Host:                 host,
			ScriptPath:           "/a.js",
			PixelPath:            "/pixel",
			SetsFirstPartyCookie: i%2 == 0,
			FirstPartyCookieName: "_" + w1 + "id",
			SetsThirdPartyCookie: i%2 == 1,
			ReadsSmuggledUIDs:    i%5 == 0,
		})
	}
	return out
}

// TrackerRegistry serves every tracker host and mints their identifiers.
type TrackerRegistry struct {
	trackers map[string]*servedTracker
	seed     detrand.Source
	// seq scopes minting per requesting client (trackers are embedded on
	// every engine's destinations, so a global counter would tie minted
	// IDs to cross-engine request interleaving).
	seq detrand.Seq
}

// servedTracker is one tracker as the registry serves it, the handler
// of its host; its script is trackerScript. What every request would
// otherwise rebuild is built once, with the registry.
type servedTracker struct {
	*Tracker
	reg *TrackerRegistry
	// fpLabel ("fp/<host>") and tpLabel ("3p/<host>") key the minting
	// streams of the first- and third-party cookies the tracker plants
	// ("" when it plants none).
	fpLabel, tpLabel string
}

// trackerScript is a tracker's script program.
type trackerScript servedTracker

// NewTrackerRegistry builds a registry over the given trackers.
func NewTrackerRegistry(seed detrand.Source, trackers []*Tracker) *TrackerRegistry {
	reg := &TrackerRegistry{
		trackers: make(map[string]*servedTracker, len(trackers)),
		seed:     seed.Derive("trackers"),
	}
	for _, t := range trackers {
		st := &servedTracker{Tracker: t, reg: reg}
		if t.SetsFirstPartyCookie {
			st.fpLabel = "fp/" + t.Host
		}
		if t.SetsThirdPartyCookie {
			st.tpLabel = "3p/" + t.Host
		}
		reg.trackers[t.Host] = st
	}
	return reg
}

// Register installs all tracker hosts on the network.
func (reg *TrackerRegistry) Register(net *netsim.Network) {
	for host, st := range reg.trackers {
		net.Handle(host, st)
	}
}

// Lookup returns the tracker for a host.
func (reg *TrackerRegistry) Lookup(host string) (*Tracker, bool) {
	if st, ok := reg.trackers[host]; ok {
		return st.Tracker, true
	}
	return nil, false
}

func (reg *TrackerRegistry) mint(label, client string) string {
	n := reg.seq.Next(client)
	return reg.seed.Derive(label, client).DeriveN("n", n).Token(22, detrand.AlphaNum)
}

// Serve answers the tracker's script and pixel requests.
func (t *servedTracker) Serve(req *netsim.Request) *netsim.Response {
	resp := netsim.NewResponse(http.StatusOK)
	switch {
	case strings.HasPrefix(req.URL.Path, t.ScriptPath):
		resp.Script = (*trackerScript)(t)
	case strings.HasPrefix(req.URL.Path, t.PixelPath):
		if t.SetsThirdPartyCookie {
			if _, already := req.Cookie("tuid"); !already {
				c := netsim.NewCookie("tuid", t.reg.mint(t.tpLabel, req.Client))
				c.SameSite = netsim.SameSiteNone
				c.Secure = true
				resp.AddCookie(c)
			}
		}
		resp.Body = "GIF89a"
	}
	return resp
}

// smuggledParams are the click-ID parameters a tracker that reads
// smuggled UIDs forwards, in the order it appends them.
var smuggledParams = [...]string{"gclid", "msclkid"}

// Run is the tracker script's behaviour: plant a first-party ID, read
// smuggled click IDs, and phone home with a pixel request.
func (s *trackerScript) Run(env netsim.ScriptEnv) {
	t := (*servedTracker)(s)
	if t.SetsFirstPartyCookie {
		name := t.FirstPartyCookieName
		if _, exists := env.DocumentCookie(name); !exists {
			env.SetDocumentCookie(netsim.NewCookie(name, t.reg.mint(t.fpLabel, env.Client())))
		}
	}
	// Phone home: the collection request the filter lists catch.
	page := env.PageURL()
	// Escaping at most triples a byte, and a decoded value is no longer
	// than its raw form in the page's query.
	size := len("dl=") + 3*len(page.Host)
	if t.ReadsSmuggledUIDs {
		size += 2*len("&msclkid=") + 3*len(page.RawQuery)
	}
	var q strings.Builder
	q.Grow(size)
	urlx.AppendQuery(&q, "dl", page.Host)
	if t.ReadsSmuggledUIDs {
		// Forward smuggled click IDs so the tracker can join the
		// destination visit to the click (§4.3: "redirectors can
		// aggregate users' activity on ads destination websites").
		for _, param := range smuggledParams {
			if v, ok := urlx.Param(page, param); ok {
				q.WriteByte('&')
				urlx.AppendQuery(&q, param, v)
			}
		}
	}
	pixel := &url.URL{Scheme: "https", Host: t.Host, Path: t.PixelPath, RawQuery: q.String()}
	env.Fetch(http.MethodGet, pixel, netsim.TypeImage, "")
}
