package advertiser

import (
	"net/http"
	"strings"
	"sync"

	"searchads/internal/detrand"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// clickIDCookieNames maps an incoming click-ID query parameter to the
// first-party cookie name the advertiser's tag persists it under, the
// real-world conventions of Google's and Microsoft's conversion tags
// ("advertisers might store click-tracking first-party cookies to track
// actions taken after the ad click", §4.3.2).
var clickIDCookieNames = map[string]string{
	"gclid":   "_gcl_aw",
	"msclkid": "_uetmsclkid",
}

// Site is one advertiser's web property.
type Site struct {
	// Domain is the site's registrable domain.
	Domain string
	// LandingPath is the ad's landing page path.
	LandingPath string
	// Trackers are the third-party services embedded on the landing
	// page. An empty list models the 7% of clean destinations.
	Trackers []*Tracker
	// PersistParams lists the click-ID query parameters the site's own
	// tag persists into first-party cookies.
	PersistParams []string
	// PersistToLocalStorage additionally mirrors persisted click IDs
	// into localStorage.
	PersistToLocalStorage bool
}

// LandingURL returns the site's canonical landing URL.
func (s *Site) LandingURL() string {
	return "https://" + s.Domain + s.LandingPath
}

// SiteRegistry serves every advertiser site.
type SiteRegistry struct {
	sites map[string]*servedSite
	seed  detrand.Source
	// seq scopes session-cookie minting per requesting client, keeping
	// minted values independent of cross-engine request interleaving.
	seq detrand.Seq
}

// servedSite is one site as the registry serves it, the handler of its
// hosts; its tag script is siteTag. The landing page's subresource list
// and products link are built on the first landing visit and shared by
// every page served after it (pages only read them).
type servedSite struct {
	*Site
	reg       *SiteRegistry
	once      sync.Once
	resources []netsim.ResourceRef
	products  string
}

// siteTag is a site's own tag script.
type siteTag servedSite

// NewSiteRegistry builds a registry over the given sites.
func NewSiteRegistry(seed detrand.Source, sites []*Site) *SiteRegistry {
	reg := &SiteRegistry{
		sites: make(map[string]*servedSite, len(sites)),
		seed:  seed.Derive("advertisers"),
	}
	for _, s := range sites {
		reg.sites[s.Domain] = &servedSite{Site: s, reg: reg}
	}
	return reg
}

// Register installs every site on the network. Each site answers on its
// apex and www. subdomain.
func (reg *SiteRegistry) Register(net *netsim.Network) {
	for domain, s := range reg.sites {
		net.HandleSite(domain, s)
	}
}

// Lookup returns the site for a domain.
func (reg *SiteRegistry) Lookup(domain string) (*Site, bool) {
	if s, ok := reg.sites[domain]; ok {
		return s.Site, true
	}
	return nil, false
}

// Sites returns the number of registered sites.
func (reg *SiteRegistry) Sites() int { return len(reg.sites) }

// Serve answers the site's tag script and, on any other path, its
// landing page.
func (s *servedSite) Serve(req *netsim.Request) *netsim.Response {
	resp := netsim.NewResponse(http.StatusOK)
	if strings.HasSuffix(req.URL.Path, "/site.js") {
		resp.Script = (*siteTag)(s)
		return resp
	}
	s.once.Do(func() {
		s.resources = make([]netsim.ResourceRef, 0, 2+len(s.Trackers))
		s.resources = append(s.resources,
			netsim.ResourceRef{URL: "https://" + s.Domain + "/static/site.js", Type: netsim.TypeScript},
			netsim.ResourceRef{URL: "https://" + s.Domain + "/static/style.css", Type: netsim.TypeStylesheet},
		)
		for _, t := range s.Trackers {
			s.resources = append(s.resources, netsim.ResourceRef{URL: t.ScriptURL(), Type: netsim.TypeScript})
		}
		s.products = "https://" + s.Domain + "/products"
	})
	page := &netsim.Page{
		Title: s.Domain,
		Root: netsim.NewElement("div", "id", "main").Append(
			netsim.NewElement("h1"),
			netsim.NewElement("a", "href", s.products),
		),
		Resources: s.resources,
	}
	resp.Page = page
	// First-party session cookie: a rotating value the §3.2 session
	// filter must reject.
	if _, ok := req.Cookie("sess"); !ok {
		n := s.reg.seq.Next(req.Client)
		c := netsim.NewCookie("sess", s.reg.seed.Derive("sess", s.Domain, req.Client).DeriveN("n", n).Token(16, detrand.HexLower))
		resp.AddCookie(c)
	}
	return resp
}

// Run is the advertiser's own tag: it persists incoming click IDs to
// first-party storage, which is how "MSCLKID values are persisted in
// 15%, 17%, and 1% of cases" (§4.3.2) arises.
func (tag *siteTag) Run(env netsim.ScriptEnv) {
	for _, param := range tag.PersistParams {
		v, ok := urlx.Param(env.PageURL(), param)
		if !ok || v == "" {
			continue
		}
		name := clickIDCookieNames[param]
		if name == "" {
			name = "_" + param
		}
		env.SetDocumentCookie(netsim.NewCookie(name, v))
		if tag.PersistToLocalStorage {
			env.LocalStorageSet(name, v)
		}
	}
}
