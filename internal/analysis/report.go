package analysis

import (
	"fmt"
	"sort"

	"searchads/internal/tokens"
)

// Report materialises the §4 analysis of everything added so far.
func (a *Accumulator) Report() *Report {
	cls := a.tokens.Result()
	r := &Report{
		Table1:           make(map[string]Table1Row),
		Before:           make(map[string]BeforeResult),
		During:           make(map[string]*DuringResult),
		After:            make(map[string]*AfterResult),
		RecorderCoverage: make(map[string]float64),
		Traffic:          make(map[string]TrafficStats),
		EngineOrder:      a.sortedOrder(),
		classifier:       cls,
	}
	r.Funnel = FunnelResult{
		TotalTokens: cls.TotalTokens,
		ByReason:    cls.ByReason,
		UserIDs:     cls.ByReason[tokens.ReasonUserID],
	}
	for _, name := range r.EngineOrder {
		e := a.engines[name]
		r.Table1[name] = Table1Row{
			Queries:              e.queries,
			DistinctDestinations: len(e.dests),
			DistinctPaths:        len(e.paths),
		}
		r.Before[name] = a.finishBefore(e, cls)
		r.During[name] = a.finishDuring(e, cls)
		r.After[name] = a.finishAfter(e, cls)
		r.RecorderCoverage[name] = medianFromHist(e.ratioHist, e.ratioN)
		// The SERP and destination streams were matched against the
		// filter lists as their iterations arrived; traffic adds the
		// click stage's count, so each stage is matched exactly once.
		r.Traffic[name] = TrafficStats{
			Requests:   e.requests,
			ThirdParty: e.thirdParty,
			Blocked:    e.serpTracker + e.clickBlocked + e.destBlocked,
		}
		if len(e.failures) > 0 {
			if r.Failures == nil {
				r.Failures = make(map[string]map[string]int)
			}
			fc := make(map[string]int, len(e.failures))
			for cls, c := range e.failures {
				fc[cls] = c
			}
			r.Failures[name] = fc
		}
		if len(e.outcomes) > 0 {
			if r.Outcomes == nil {
				r.Outcomes = make(map[string]map[string]int)
			}
			oc := make(map[string]int, len(e.outcomes))
			for o, c := range e.outcomes {
				oc[o] = c
			}
			r.Outcomes[name] = oc
		}
	}
	return r
}

// sortedOrder lists engines by the stream position of their first
// iteration — identical to append order for a plain streaming fold, and
// identical across any Merge of any shard partition.
func (a *Accumulator) sortedOrder() []string {
	out := append([]string(nil), a.order...)
	sort.Slice(out, func(i, j int) bool {
		fi, fj := a.engines[out[i]].firstSeen, a.engines[out[j]].firstSeen
		if fi != fj {
			return fi < fj
		}
		return out[i] < out[j]
	})
	return out
}

func (a *Accumulator) finishBefore(e *engineAcc, cls *tokens.Result) BeforeResult {
	res := BeforeResult{TotalRequests: e.serpTotal, TrackerRequests: e.serpTracker}
	a.hostScratch = a.hostScratch[:0] // distinct identifier-key name ids
	for nv := range e.uidCookieCands {
		// Only cookies on the engine's own site count (§4.1.1); e.site
		// is the merged first iteration's, so the filter is
		// shard-invariant.
		if a.tab.Str(nv[0]) != e.site {
			continue
		}
		if cls.UserIDAt(nv[2]) {
			res.StoresUserIDs = true
			a.hostScratch = appendDistinctID(a.hostScratch, nv[1])
		}
	}
	for _, nid := range a.hostScratch {
		res.IdentifierKeys = append(res.IdentifierKeys, a.tab.Str(nid))
	}
	sortStrings(res.IdentifierKeys)
	return res
}

func (a *Accumulator) finishDuring(e *engineAcc, cls *tokens.Result) *DuringResult {
	res := &DuringResult{OrgFractions: make(map[string]float64)}
	res.RedirectorCDF = cdfFromSlice(e.redirHist, e.clicks)

	// Resolve the deferred Figure 5 / Table 4 candidates: per click,
	// the distinct display hosts whose surviving cookie value the
	// classifier calls a user identifier.
	var uidHist []int
	uidRedirectorCounts := make(map[uint32]int)
	pos := 0
	for _, ln := range e.uidClickLens {
		pairs := e.uidClickPairs[pos : pos+int(ln)]
		pos += int(ln)
		a.hostScratch = a.hostScratch[:0]
		for _, pr := range pairs {
			if cls.UserIDAt(uint32(pr)) {
				hid := uint32(pr >> 32)
				if !containsID(a.hostScratch, hid) {
					a.hostScratch = append(a.hostScratch, hid)
					uidRedirectorCounts[hid]++
				}
			}
		}
		uidHist = bumpHist(uidHist, len(a.hostScratch))
	}
	res.UIDRedirectorCDF = cdfFromSlice(uidHist, len(e.uidClickLens))

	if e.clicks > 0 {
		res.NavTrackingFraction = float64(e.navTracking) / float64(e.clicks)
	}
	res.TopPaths = a.topFreqsIDs(e.pathCounts, e.clicks, 5)
	for org, c := range e.orgCounts {
		res.OrgFractions[a.tab.Str(org)] = float64(c) / float64(max(e.clicks, 1))
	}
	res.UIDRedirectors = a.topFreqsIDs(uidRedirectorCounts, e.clicks, 6)
	res.TopRedirectors = a.topFreqsIDs(e.redirectorOccurrences, e.totalOccurrences, 8)
	for _, b := range e.beacons {
		s := b.s
		for g, c := range b.valueSets {
			if a.groupHasUserID(g, cls) {
				s.WithUIDCookie += c
			}
		}
		res.Beacons = append(res.Beacons, s)
	}
	sortBeacons(res.Beacons)
	return res
}

func (a *Accumulator) finishAfter(e *engineAcc, cls *tokens.Result) *AfterResult {
	res := &AfterResult{}
	other := e.otherEager
	any := e.anyEager
	for _, d := range e.otherDeferred {
		if a.groupHasUserID(d.group, cls) {
			other++
			if !d.countedAny {
				any++
			}
		}
	}
	referrerUID := 0
	for g, c := range e.referrerCands {
		if a.groupHasUserID(g, cls) {
			referrerUID += c
		}
	}
	if e.clicks > 0 {
		res.PagesWithTrackers = float64(e.pagesWithTrackers) / float64(e.clicks)
		res.MSCLKID = float64(e.msclkid) / float64(e.clicks)
		res.GCLID = float64(e.gclid) / float64(e.clicks)
		res.OtherUID = float64(other) / float64(e.clicks)
		res.AnyUID = float64(any) / float64(e.clicks)
		res.ReferrerUID = float64(referrerUID) / float64(e.clicks)
		res.PersistedMSCLKID = float64(e.persistedMS) / float64(e.clicks)
		res.PersistedGCLID = float64(e.persistedGC) / float64(e.clicks)
	}
	res.DistinctTrackers = len(e.distinctTrackers)
	res.MedianTrackersPerPage = medianFromSlice(e.perPageHist, e.clicks)
	res.TopEntities = a.topFreqsIDs(e.entityCounts, e.entityTotal, 6)
	return res
}

// topFreqsIDs is topFreqs over an id-keyed count map: labels resolve
// through the intern table at materialisation time only.
func (a *Accumulator) topFreqsIDs(counts map[uint32]int, denom, n int) []Freq {
	labelled := make(map[string]int, len(counts))
	for id, c := range counts {
		labelled[a.tab.Str(id)] = c
	}
	return topFreqs(labelled, denom, n)
}

// groupHasUserID reports whether the classifier calls any value of a
// group (see groupID) a user identifier.
func (a *Accumulator) groupHasUserID(group uint32, cls *tokens.Result) bool {
	found := false
	a.groupMembers(group, func(id uint32) bool {
		found = cls.UserIDAt(id)
		return !found
	})
	return found
}

// Merge folds another accumulator's state into a, so that a afterwards
// holds exactly the state of a single accumulator that folded both
// input streams (AddAt sequence numbers decide first-seen engine
// order; every other aggregate is a partition-invariant sum, union, or
// grouped count). The two accumulators intern through different tables;
// ids are reconciled by string. b is left unchanged and may be
// discarded.
//
// Both sides must have been built with the same Options — compared by
// identity, like ErrReportCached: the same *filterlist.Engine and
// *entities.List pointers. Accumulators built with zero-value Options
// share the memoised embedded defaults and merge freely; mismatched
// options return ErrOptionsMismatch.
func (a *Accumulator) Merge(b *Accumulator) error {
	if b == nil || a == b {
		return fmt.Errorf("analysis: Merge target must be a distinct accumulator")
	}
	if a.filter != b.filter || a.ents != b.ents {
		return ErrOptionsMismatch
	}
	a.tokens.Merge(b.tokens)
	remap := func(id uint32) uint32 { return a.tab.ID(b.tab.Str(id)) }
	// regroup re-keys a value-id group of b's in a's id space: the
	// remapped ids re-sort into canonical order, so two shards'
	// sightings of the same value set land in one group.
	regroup := func(g uint32) uint32 {
		a.valScratch = a.valScratch[:0]
		b.groupMembers(g, func(id uint32) bool {
			a.valScratch = append(a.valScratch, remap(id))
			return true
		})
		return a.groupID(a.valScratch)
	}
	for _, name := range b.order {
		be := b.engines[name]
		ae := a.engines[name]
		if ae == nil {
			ae = newEngineAcc(be.site, be.firstSeen)
			a.engines[name] = ae
			a.order = append(a.order, name)
		} else if be.firstSeen < ae.firstSeen {
			// b saw the engine earlier in the stream: its first
			// iteration also decides the engine's site, exactly as the
			// sequential fold's first Add would have.
			ae.firstSeen = be.firstSeen
			ae.site = be.site
		}
		a.mergeEngine(ae, be, remap, regroup)
	}
	a.count += b.count
	if b.next > a.next {
		a.next = b.next
	}
	return nil
}

func (a *Accumulator) mergeEngine(dst, src *engineAcc, remap, regroup func(uint32) uint32) {
	dst.queries += src.queries
	for cls, c := range src.failures {
		dst.failures[cls] += c
	}
	for o, c := range src.outcomes {
		dst.outcomes[o] += c
	}
	for id := range src.dests {
		dst.dests[remap(id)] = struct{}{}
	}
	for id := range src.paths {
		dst.paths[remap(id)] = struct{}{}
	}

	dst.serpTotal += src.serpTotal
	dst.serpTracker += src.serpTracker
	for nv := range src.uidCookieCands {
		dst.uidCookieCands[[3]uint32{remap(nv[0]), remap(nv[1]), remap(nv[2])}] = struct{}{}
	}

	dst.clicks += src.clicks
	for id, c := range src.pathCounts {
		dst.pathCounts[remap(id)] += c
	}
	dst.redirHist = addHist(dst.redirHist, src.redirHist)
	dst.navTracking += src.navTracking
	for id, c := range src.orgCounts {
		dst.orgCounts[remap(id)] += c
	}
	for id, c := range src.redirectorOccurrences {
		dst.redirectorOccurrences[remap(id)] += c
	}
	dst.totalOccurrences += src.totalOccurrences
	dst.uidClickLens = append(dst.uidClickLens, src.uidClickLens...)
	for _, pr := range src.uidClickPairs {
		dst.uidClickPairs = append(dst.uidClickPairs,
			uint64(remap(uint32(pr>>32)))<<32|uint64(remap(uint32(pr))))
	}
	for kid, sb := range src.beacons {
		nid := remap(kid)
		db := dst.beacons[nid]
		if db == nil {
			db = &beaconAcc{s: BeaconSummary{Endpoint: a.tab.Str(nid)}, valueSets: make(map[uint32]int)}
			dst.beacons[nid] = db
		}
		db.s.Count += sb.s.Count
		db.s.CarriesDestURL = db.s.CarriesDestURL || sb.s.CarriesDestURL
		db.s.CarriesQuery = db.s.CarriesQuery || sb.s.CarriesQuery
		db.s.CarriesPosition = db.s.CarriesPosition || sb.s.CarriesPosition
		for g, c := range sb.valueSets {
			db.valueSets[regroup(g)] += c
		}
	}

	dst.pagesWithTrackers += src.pagesWithTrackers
	for id := range src.distinctTrackers {
		dst.distinctTrackers[remap(id)] = struct{}{}
	}
	dst.perPageHist = addHist(dst.perPageHist, src.perPageHist)
	for id, c := range src.entityCounts {
		dst.entityCounts[remap(id)] += c
	}
	dst.entityTotal += src.entityTotal
	dst.destBlocked += src.destBlocked
	dst.msclkid += src.msclkid
	dst.gclid += src.gclid
	dst.otherEager += src.otherEager
	dst.anyEager += src.anyEager
	for _, d := range src.otherDeferred {
		dst.otherDeferred = append(dst.otherDeferred, deferredOther{countedAny: d.countedAny, group: regroup(d.group)})
	}
	for g, c := range src.referrerCands {
		dst.referrerCands[regroup(g)] += c
	}
	dst.persistedMS += src.persistedMS
	dst.persistedGC += src.persistedGC

	for ratio, c := range src.ratioHist {
		dst.ratioHist[ratio] += c
	}
	dst.ratioN += src.ratioN

	dst.requests += src.requests
	dst.thirdParty += src.thirdParty
	dst.clickBlocked += src.clickBlocked
}
