// Package storage implements browser-side state: a cookie jar supporting
// both flat and partitioned storage (the two models the paper contrasts in
// §2.2.1 and Figure 1) and per-origin localStorage.
//
// In flat mode all cookies live in one namespace, so a tracker reads the
// same cookie regardless of which top-level site embedded it — classic
// cross-site tracking. In partitioned mode the jar key is extended with
// the top-level site ("a hierarchical namespace where a tracker accesses a
// different storage area on each website that loads it"), which defeats
// third-party-cookie tracking but, as the paper shows, not navigational
// tracking: a redirector is first-party during the bounce and reads its
// own partition.
package storage

import (
	"cmp"
	"net/url"
	"slices"
	"strings"
	"time"

	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// Mode selects the jar's storage model.
type Mode int

// Storage models.
const (
	// Flat is a single shared cookie namespace (Chrome's default at the
	// time of the study).
	Flat Mode = iota
	// Partitioned keys third-party cookies by top-level site (Safari,
	// Firefox, Brave).
	Partitioned
)

func (m Mode) String() string {
	if m == Partitioned {
		return "partitioned"
	}
	return "flat"
}

// StoredCookie is a cookie at rest, annotated with the partition it lives
// in. PartitionKey is "" in the unpartitioned (first-party keyed by
// nothing) store.
type StoredCookie struct {
	PartitionKey string // top-level site, or "" for the flat store
	Domain       string // cookie's domain (host for host-only cookies)
	HostOnly     bool
	Path         string
	Name         string
	Value        string
	Expires      time.Time // zero = session cookie
	Secure       bool
	HTTPOnly     bool
	SameSite     netsim.SameSiteMode
	Created      time.Time
}

// Jar is a cookie store. The zero value is not usable; construct with
// NewJar.
//
// Cookies are indexed by the registrable domain of their Domain: every
// host a cookie matches shares that site, so a request only scans its
// own site's bucket. A domain cookie whose Domain covers hosts of more
// than one site (see urlx.DomainSite) is kept in wide instead, which
// every request scans.
type Jar struct {
	mode  Mode
	sites map[string][]*StoredCookie
	wide  []*StoredCookie
	n     int
	// nextExpiry is no later than the earliest expiry of any stored
	// cookie (zero when none expires): until the clock reaches it,
	// nothing in the jar has expired and a purge would delete nothing.
	nextExpiry time.Time
}

// NewJar returns an empty jar in the given mode.
func NewJar(mode Mode) *Jar {
	return &Jar{mode: mode, sites: make(map[string][]*StoredCookie)}
}

// Mode returns the jar's storage model.
func (j *Jar) Mode() Mode { return j.mode }

// partitionFor computes the storage partition for a cookie set in a
// context where the top-level site is firstParty.
func (j *Jar) partitionFor(firstParty string, chips bool) string {
	if j.mode == Partitioned || chips {
		// CHIPS cookies are partitioned even on flat browsers.
		return firstParty
	}
	return ""
}

// bucketOf returns the site whose bucket holds sc, and false when sc
// belongs in the wide list instead.
func bucketOf(sc *StoredCookie) (string, bool) {
	if sc.HostOnly {
		return urlx.RegistrableDomain(sc.Domain), true
	}
	return urlx.DomainSite(sc.Domain)
}

// sameKey reports whether a and b replace each other (RFC 6265 §5.3
// step 11: same name, domain and path — here also same partition).
func sameKey(a, b *StoredCookie) bool {
	return a.Name == b.Name && a.Domain == b.Domain && a.Path == b.Path && a.PartitionKey == b.PartitionKey
}

// store replaces the cookie with sc's key, or adds sc; an expired sc
// only deletes that cookie (RFC 6265 §5.3 step 11).
func (j *Jar) store(sc *StoredCookie, expired bool) {
	site, indexed := bucketOf(sc)
	list := j.wide
	if indexed {
		list = j.sites[site]
	}
	i := slices.IndexFunc(list, func(c *StoredCookie) bool { return sameKey(c, sc) })
	switch {
	case expired && i < 0:
		return
	case expired:
		list = slices.Delete(list, i, i+1)
		j.n--
	case i >= 0:
		list[i] = sc
	default:
		list = append(list, sc)
		j.n++
	}
	if !expired && !sc.Expires.IsZero() && (j.nextExpiry.IsZero() || sc.Expires.Before(j.nextExpiry)) {
		j.nextExpiry = sc.Expires
	}
	if indexed {
		j.sites[site] = list
	} else {
		j.wide = list
	}
}

// purge deletes every cookie expired at now once the clock has reached
// the earliest stored expiry.
func (j *Jar) purge(now time.Time) {
	if j.nextExpiry.IsZero() || j.nextExpiry.After(now) {
		return
	}
	j.nextExpiry = time.Time{}
	keep := func(list []*StoredCookie) []*StoredCookie {
		return slices.DeleteFunc(list, func(sc *StoredCookie) bool {
			if sc.Expires.IsZero() {
				return false
			}
			if !sc.Expires.After(now) {
				j.n--
				return true
			}
			if j.nextExpiry.IsZero() || sc.Expires.Before(j.nextExpiry) {
				j.nextExpiry = sc.Expires
			}
			return false
		})
	}
	for site, list := range j.sites {
		if list = keep(list); len(list) == 0 {
			delete(j.sites, site)
		} else {
			j.sites[site] = list
		}
	}
	j.wide = keep(j.wide)
}

// SetCookies stores the response cookies under the rules of RFC 6265 plus
// the jar's partitioning model. requestURL is the URL the Set-Cookie came
// from; firstParty is the top-level site of the tab at that moment; now is
// the virtual time.
//
// Invalid cookies (domain attribute not covering the request host, or a
// bare public suffix) are dropped, as real browsers drop them.
func (j *Jar) SetCookies(now time.Time, u *url.URL, firstParty string, cookies []*netsim.Cookie) {
	if u == nil {
		return
	}
	host := strings.ToLower(urlx.Hostname(u.Host))
	for _, c := range cookies {
		if c == nil || c.Name == "" {
			continue
		}
		domain := host
		hostOnly := true
		if c.Domain != "" {
			d := strings.TrimPrefix(strings.ToLower(c.Domain), ".")
			if urlx.IsPublicSuffix(d) || !domainMatch(host, d) {
				continue // rejected, as real browsers reject it
			}
			domain = d
			hostOnly = false
		}
		path := c.Path
		if path == "" {
			path = "/"
		}
		sc := &StoredCookie{
			PartitionKey: j.partitionFor(firstParty, c.Partitioned),
			Domain:       domain,
			HostOnly:     hostOnly,
			Path:         path,
			Name:         c.Name,
			Value:        c.Value,
			Expires:      c.Expires,
			Secure:       c.Secure,
			HTTPOnly:     c.HTTPOnly,
			SameSite:     c.SameSite,
			Created:      now,
		}
		j.store(sc, !sc.Expires.IsZero() && !sc.Expires.After(now))
	}
}

// domainMatch implements RFC 6265 §5.1.3.
func domainMatch(host, domain string) bool {
	if host == domain {
		return true
	}
	return len(host) > len(domain) && strings.HasSuffix(host, domain) && host[len(host)-len(domain)-1] == '.'
}

// pathMatch implements RFC 6265 §5.1.4 (simplified to prefix semantics).
func pathMatch(requestPath, cookiePath string) bool {
	if requestPath == "" {
		requestPath = "/"
	}
	if requestPath == cookiePath {
		return true
	}
	if strings.HasPrefix(requestPath, cookiePath) {
		return strings.HasSuffix(cookiePath, "/") || requestPath[len(cookiePath)] == '/'
	}
	return false
}

// Cookies returns the cookies the browser would attach to a request for
// requestURL made in a tab whose top-level site is firstParty.
// topLevelNav marks top-level navigations, which (like real browsers)
// still send SameSite=Lax cookies cross-site. Each call first deletes
// every expired cookie from the jar.
func (j *Jar) Cookies(now time.Time, u *url.URL, firstParty string, topLevelNav bool) []*netsim.Cookie {
	if u == nil || j.n == 0 {
		return nil
	}
	var buf [16]*StoredCookie
	matched := buf[:0]
	j.visible(now, u, firstParty, topLevelNav, func(sc *StoredCookie) {
		matched = append(matched, sc)
	})
	if len(matched) == 0 {
		return nil
	}
	slices.SortFunc(matched, sendOrder)
	// One backing array for the result cookies instead of one heap
	// object per cookie: this runs for every request the browser sends.
	backing := make([]netsim.Cookie, len(matched))
	out := make([]*netsim.Cookie, len(matched))
	for i, sc := range matched {
		backing[i] = netsim.Cookie{Name: sc.Name, Value: sc.Value}
		out[i] = &backing[i]
	}
	return out
}

// Cookie returns the value of the named cookie among those a
// subresource request for u would carry (Cookies with topLevelNav
// false) — document.cookie's view — and whether there is one: the
// first in Cookies' order when several share the name (different
// paths, domains or partitions). It allocates nothing. Like Cookies,
// it first deletes every expired cookie from the jar.
func (j *Jar) Cookie(now time.Time, u *url.URL, firstParty, name string) (string, bool) {
	if u == nil || j.n == 0 {
		return "", false
	}
	var best *StoredCookie
	j.visible(now, u, firstParty, false, func(sc *StoredCookie) {
		if sc.Name == name && (best == nil || sendOrder(sc, best) < 0) {
			best = sc
		}
	})
	if best == nil {
		return "", false
	}
	return best.Value, true
}

// visible purges expired cookies and calls fn for every cookie a
// request for u from a tab on firstParty carries (see Cookies), in
// storage order.
func (j *Jar) visible(now time.Time, u *url.URL, firstParty string, topLevelNav bool, fn func(*StoredCookie)) {
	j.purge(now)
	host := strings.ToLower(urlx.Hostname(u.Host))
	requestSite := urlx.RegistrableDomain(host)
	crossSite := firstParty != "" && requestSite != firstParty

	for _, list := range [2][]*StoredCookie{j.sites[requestSite], j.wide} {
		for _, sc := range list {
			if sc.PartitionKey != "" && sc.PartitionKey != firstParty {
				continue
			}
			if sc.HostOnly {
				if sc.Domain != host {
					continue
				}
			} else if !domainMatch(host, sc.Domain) {
				continue
			}
			if !pathMatch(u.Path, sc.Path) {
				continue
			}
			if sc.Secure && u.Scheme != "https" {
				continue
			}
			if crossSite && !topLevelNav {
				// Subresource cross-site: only SameSite=None travels.
				if sc.SameSite != netsim.SameSiteNone {
					continue
				}
			}
			if crossSite && topLevelNav && sc.SameSite == netsim.SameSiteStrict {
				continue
			}
			fn(sc)
		}
	}
}

// sendOrder is the RFC 6265 serialisation order: longer paths first,
// then by creation; name, domain and partition break the remaining
// ties, so the order is total (two matching cookies with equal path
// lengths have equal paths, and name, domain, path and partition
// identify a cookie).
func sendOrder(a, b *StoredCookie) int {
	if c := cmp.Compare(len(b.Path), len(a.Path)); c != 0 {
		return c
	}
	if c := a.Created.Compare(b.Created); c != 0 {
		return c
	}
	return cmp.Or(
		strings.Compare(a.Name, b.Name),
		strings.Compare(a.Domain, b.Domain),
		strings.Compare(a.PartitionKey, b.PartitionKey),
	)
}

// each calls fn for every stored cookie, in no particular order.
func (j *Jar) each(fn func(*StoredCookie)) {
	for _, list := range j.sites {
		for _, sc := range list {
			fn(sc)
		}
	}
	for _, sc := range j.wide {
		fn(sc)
	}
}

// All returns every stored, unexpired cookie, sorted deterministically.
// The analysis pipeline consumes this dump ("The system records all
// first-party and third-party cookies ... at each step", §3.1).
func (j *Jar) All(now time.Time) []StoredCookie {
	out := make([]StoredCookie, 0, j.n)
	j.each(func(sc *StoredCookie) {
		if sc.Expires.IsZero() || sc.Expires.After(now) {
			out = append(out, *sc)
		}
	})
	slices.SortFunc(out, func(a, b StoredCookie) int {
		return cmp.Or(
			strings.Compare(a.PartitionKey, b.PartitionKey),
			strings.Compare(a.Domain, b.Domain),
			strings.Compare(a.Name, b.Name),
			strings.Compare(a.Path, b.Path),
		)
	})
	return out
}

// Get returns the value of the first cookie with the given domain and
// name in any partition (partitions in order, then paths), for tests
// and server-side assertions. It does not check expiry.
func (j *Jar) Get(domain, name string) (string, bool) {
	var found *StoredCookie
	j.each(func(sc *StoredCookie) {
		if sc.Domain != domain || sc.Name != name {
			return
		}
		if found == nil || sc.PartitionKey < found.PartitionKey ||
			sc.PartitionKey == found.PartitionKey && sc.Path < found.Path {
			found = sc
		}
	})
	if found == nil {
		return "", false
	}
	return found.Value, true
}

// Len reports the number of stored cookies (including expired ones not
// yet purged).
func (j *Jar) Len() int { return j.n }

// Clear empties the jar (a fresh browser instance, §3.1: "We run each
// iteration in a new browser instance").
func (j *Jar) Clear() { *j = *NewJar(j.mode) }
