package tokens

import (
	"slices"

	"searchads/internal/intern"
)

// Source says where a token was observed.
type Source string

// Token sources: "We consider all query parameters, localStorage, and
// cookie values. We call them tokens." (§3.2)
const (
	SourceQueryParam   Source = "queryparam"
	SourceCookie       Source = "cookie"
	SourceLocalStorage Source = "localstorage"
)

// Observation is one sighting of a token during the crawl.
type Observation struct {
	// Key is the parameter/cookie/storage key under which the value was
	// seen.
	Key string
	// Value is the token itself.
	Value string
	// Source says which storage or channel carried it.
	Source Source
	// Host is the domain (cookies), origin (localStorage), or request
	// host (query params) of the sighting.
	Host string
	// Instance identifies the browser instance (= crawl iteration); the
	// paper runs "each iteration ... in a new browser instance".
	Instance string
	// AdIndex is the index of the ad URL on the results page the token
	// came from, or -1 when not applicable. Filter (ii) compares token
	// values across the ad URLs of one results page.
	AdIndex int
	// Revisit marks observations from the extra iteration executed "one
	// day later" on the same profile (filter iii).
	Revisit bool
}

// Reason explains why a token was discarded (or kept).
type Reason string

// Discard reasons, in pipeline order.
const (
	ReasonCrossInstance Reason = "constant-across-instances" // filter (i)
	ReasonAdIdentifier  Reason = "ad-identifier"             // filter (ii)
	ReasonSessionID     Reason = "session-identifier"        // filter (iii)
	ReasonHeuristics    Reason = "value-heuristics"          // filter (iv)
	ReasonManualPass    Reason = "manual-pass"
	ReasonUserID        Reason = "user-identifier" // survived everything
)

// reasonCode is a Reason's index in reasonNames, one byte per intern
// id in a Result. The zero code means "no verdict": the id is no token
// value, or was issued after the Result was taken.
type reasonCode uint8

const (
	codeNone reasonCode = iota
	codeCrossInstance
	codeAdIdentifier
	codeSessionID
	codeHeuristics
	codeManualPass
	codeUserID
	numCodes
)

var reasonNames = [numCodes]Reason{
	"", ReasonCrossInstance, ReasonAdIdentifier, ReasonSessionID,
	ReasonHeuristics, ReasonManualPass, ReasonUserID,
}

// Result is the classification outcome: a snapshot of the verdicts at
// the moment Accumulator.Result was called. Verdicts are kept densely,
// one byte per id of the accumulator's intern table; values are
// resolved to ids through that table, so ReasonFor and IsUserID must
// not run concurrently with further observations into the accumulator
// (they read the table those observations grow).
type Result struct {
	// TotalTokens is the number of unique token values observed (the
	// paper's dataset had 6,971).
	TotalTokens int
	// ByReason counts unique tokens per discard reason (UserID counts
	// the survivors), reproducing the §3.2 funnel; the paper ended with
	// 1,258 user identifiers. Reasons no token received are absent.
	ByReason map[Reason]int
	// reasons holds each id's verdict, indexed by intern id; ids at or
	// past its length were issued after the snapshot.
	reasons []reasonCode
	tab     *intern.Table
}

// codeAt returns the verdict for an id, codeNone past the snapshot
// (intern.None included).
func (r *Result) codeAt(id uint32) reasonCode {
	if id < uint32(len(r.reasons)) {
		return r.reasons[id]
	}
	return codeNone
}

// IsUserID reports whether value was classified as a user identifier.
func (r *Result) IsUserID(value string) bool { return r.UserIDAt(r.tab.Lookup(value)) }

// UserIDAt reports the verdict for an intern id issued by the table the
// producing accumulator observed through (see Accumulator.Table). Ids
// the table had not issued when Result was called are not user IDs.
func (r *Result) UserIDAt(id uint32) bool { return r.codeAt(id) == codeUserID }

// ReasonFor returns the classification of a value ("" if never seen,
// or first seen after the Result was taken).
func (r *Result) ReasonFor(value string) Reason {
	return reasonNames[r.codeAt(r.tab.Lookup(value))]
}

// Classifier runs the §3.2 pipeline. The zero value is ready to use.
type Classifier struct {
	// KeepManualPass disables the final manual-equivalent pass when
	// false is wanted; default (false zero value) runs it. Set
	// SkipManualPass to compare the funnel before/after, as the paper
	// reports both counts.
	SkipManualPass bool
}

// Classify applies filters (i)–(iv) and the manual pass to the
// observations and returns the classification of every unique value.
func Classify(obs []Observation) *Result { return (&Classifier{}).Classify(obs) }

// Classify implements the pipeline as a fold over an Accumulator: the
// classification of a batch is identical to observing the same
// observations one at a time and asking for the Result.
func (c *Classifier) Classify(obs []Observation) *Result {
	acc := c.NewAccumulator()
	for _, o := range obs {
		acc.Observe(o)
	}
	return acc.Result()
}

// valueState is what the accumulator knows about one intern id. seen
// marks ids observed as a token value; for those it tracks the
// sightings (filter i). Values are overwhelmingly seen inside a single
// browser instance, so that is the first instance plus a
// became-cross-instance flag — not a set. heur memoises the value's
// per-value heuristic verdict (filters iv + the manual pass), codeNone
// until judged: it depends on nothing but the value bytes, so a stream
// whose Result is materialised repeatedly classifies each distinct
// value once, not once per Result.
type valueState struct {
	firstInstance uint32
	seen, multi   bool
	heur          reasonCode
}

// adState is a filter-(ii) context: per (instance, key), the ad
// indexes and distinct values seen across the ad URLs of one results
// page. The filter asks only whether there is more than one index, so
// the first index and a flag stand for the set. The first value is
// inline; more marks a context with further distinct values, which
// Accumulator.adMore holds. Like sessState, it lives in its map.
type adState struct {
	firstIdx int32
	first    uint32
	multiIdx bool
	more     bool
}

// sessKey identifies a filter-(iii) context: (instance, key, host,
// source), all interned.
type sessKey struct {
	inst, key, host, src uint32
}

// sessState is a session context's first distinct base-visit ([0])
// and revisit ([1]) value, intern.None while a side is empty. Almost
// every context sees one value per side; more marks the few with
// further distinct values, which Accumulator.sessMore holds. The state
// is stored in the context map itself: no heap object per context,
// and nothing in the map for the collector to scan.
type sessState struct {
	first [2]uint32
	more  bool
}

const (
	sideBase    = 0
	sideRevisit = 1
)

// Accumulator is the incremental form of the §3.2 pipeline: feed it
// observations one sighting (or one crawl iteration) at a time via
// Observe, then call Result to run the filters. Every string is
// interned into a shared Table on first sight, so retained state is
// flat integer-keyed structures — O(unique tokens), never the
// observation stream itself — which is what lets streaming consumers
// classify a crawl without retaining the dataset. Observation order
// does not affect the Result, and two accumulators over a partition of
// the same stream Merge into the state of the unpartitioned fold.
//
// Each Result is a snapshot: its verdicts are indexed by the ids the
// table had issued when it was taken, and observing more afterwards
// changes neither them nor the answers the Result gives.
type Accumulator struct {
	cfg Classifier
	tab *intern.Table
	// values is indexed by intern id, up to the table's length when
	// last grown; nValues counts its seen entries.
	values  []valueState
	nValues int
	adKeys  map[uint64]adState
	// adMore holds the distinct values after the first of the ad
	// contexts whose state has more set.
	adMore   map[uint64][]uint32
	sessKeys map[sessKey]sessState
	// sessMore holds each side's distinct values after the first, for
	// the contexts whose state has more set.
	sessMore map[sessKey][2][]uint32
}

// NewAccumulator returns an empty accumulator for this classifier's
// configuration, interning into its own table.
func (c *Classifier) NewAccumulator() *Accumulator {
	return c.NewAccumulatorTable(intern.New())
}

// NewAccumulatorTable returns an empty accumulator interning into tab —
// the form used by callers (the §4 analysis fold) that key their own
// aggregate state by the same ids and read verdicts via Result.UserIDAt.
func (c *Classifier) NewAccumulatorTable(tab *intern.Table) *Accumulator {
	return &Accumulator{
		cfg:      *c,
		tab:      tab,
		adKeys:   make(map[uint64]adState),
		adMore:   make(map[uint64][]uint32),
		sessKeys: make(map[sessKey]sessState),
		sessMore: make(map[sessKey][2][]uint32),
	}
}

// NewAccumulator returns an empty accumulator with the default pipeline
// (manual pass enabled), the incremental counterpart of Classify.
func NewAccumulator() *Accumulator { return (&Classifier{}).NewAccumulator() }

// NewAccumulatorTable returns a default-pipeline accumulator interning
// into tab.
func NewAccumulatorTable(tab *intern.Table) *Accumulator {
	return (&Classifier{}).NewAccumulatorTable(tab)
}

// Table exposes the accumulator's intern table so callers can pre-intern
// strings and use ObserveIDs on the hot path.
func (a *Accumulator) Table() *intern.Table { return a.tab }

// Observe folds one sighting into the accumulator.
func (a *Accumulator) Observe(o Observation) {
	if o.Value == "" {
		return
	}
	a.ObserveIDs(
		a.tab.ID(o.Key), a.tab.ID(o.Value), a.tab.ID(o.Host),
		a.tab.ID(o.Instance), a.tab.ID(string(o.Source)),
		o.AdIndex, o.Revisit)
}

// ObserveIDs is Observe with every string already interned in Table().
// The caller must not pass the id of the empty value (Observe's skip);
// hot paths check for "" before interning anything.
func (a *Accumulator) ObserveIDs(key, val, host, inst, src uint32, adIndex int, revisit bool) {
	switch v := a.state(val); {
	case !v.seen:
		v.seen, v.firstInstance = true, inst
		a.nValues++
	case !v.multi && v.firstInstance != inst:
		v.multi = true
	}

	if adIndex >= 0 {
		a.addAd(uint64(inst)<<32|uint64(key), int32(adIndex), val)
	}

	a.addSess(sessKey{inst: inst, key: key, host: host, src: src}, sideOf(revisit), val)
}

func sideOf(revisit bool) int {
	if revisit {
		return sideRevisit
	}
	return sideBase
}

// state returns id's entry in values, growing the slice to the table.
// The capacity at least doubles when it must grow: append's gentler
// growth for large slices would reallocate the slice about five times
// over as the table fills.
func (a *Accumulator) state(id uint32) *valueState {
	if id >= uint32(len(a.values)) {
		n := a.tab.Len()
		if n > cap(a.values) {
			a.values = slices.Grow(a.values, max(n-len(a.values), cap(a.values)))
		}
		a.values = a.values[:n]
	}
	return &a.values[id]
}

// addAd records a sighting of value v at ad index idx in an ad
// context. The map is written only when the context's state changes.
func (a *Accumulator) addAd(k uint64, idx int32, v uint32) {
	s, ok := a.adKeys[k]
	if !ok {
		a.adKeys[k] = adState{firstIdx: idx, first: v}
		return
	}
	changed := false
	if !s.multiIdx && idx != s.firstIdx {
		s.multiIdx, changed = true, true
	}
	if v != s.first {
		if vs := a.adMore[k]; !contains(vs, v) {
			if vs == nil {
				// Room for the rest of a results page's few ads.
				vs = make([]uint32, 0, 4)
			}
			a.adMore[k] = append(vs, v)
			if !s.more {
				s.more, changed = true, true
			}
		}
	}
	if changed {
		a.adKeys[k] = s
	}
}

// addSess records v on one side of a session context unless it is
// there already. The map is written only when the context's state
// changes.
func (a *Accumulator) addSess(k sessKey, side int, v uint32) {
	s, ok := a.sessKeys[k]
	if !ok {
		s.first = [2]uint32{intern.None, intern.None}
	}
	switch {
	case s.first[side] == intern.None:
		s.first[side] = v
	case s.first[side] == v:
		return
	default:
		m := a.sessMore[k]
		if contains(m[side], v) {
			return
		}
		m[side] = append(m[side], v)
		a.sessMore[k] = m
		if s.more {
			return
		}
		s.more = true
	}
	a.sessKeys[k] = s
}

// sessChanged reports whether some base value of a session context is
// missing from its revisit (filter iii). Either side empty means no
// change was observed.
func (a *Accumulator) sessChanged(k sessKey, s sessState) bool {
	if s.first[sideBase] == intern.None || s.first[sideRevisit] == intern.None {
		return false
	}
	var more [2][]uint32
	if s.more {
		more = a.sessMore[k]
	}
	inRevisit := func(v uint32) bool { return v == s.first[sideRevisit] || contains(more[sideRevisit], v) }
	if !inRevisit(s.first[sideBase]) {
		return true
	}
	for _, v := range more[sideBase] {
		if !inRevisit(v) {
			return true
		}
	}
	return false
}

// Merge folds another accumulator's state into a. The two may intern
// through different tables (shards build their own); ids are reconciled
// by string. Merging any shard partition of an observation stream
// yields the state — and therefore the Result — of the unpartitioned
// fold. b is left unchanged.
func (a *Accumulator) Merge(b *Accumulator) {
	if b == nil {
		return
	}
	sameTab := a.tab == b.tab
	remap := func(id uint32) uint32 {
		if sameTab {
			return id
		}
		return a.tab.ID(b.tab.Str(id))
	}
	sameCfg := a.cfg == b.cfg
	for id, bv := range b.values {
		if !bv.seen && (!sameCfg || bv.heur == codeNone) {
			continue
		}
		nid := remap(uint32(id))
		if bv.seen {
			inst := remap(bv.firstInstance)
			switch av := a.state(nid); {
			case !av.seen:
				av.seen, av.firstInstance, av.multi = true, inst, bv.multi
				a.nValues++
			case !av.multi && (bv.multi || av.firstInstance != inst):
				av.multi = true
			}
		}
		if sameCfg && bv.heur != codeNone {
			a.state(nid).heur = bv.heur
		}
	}
	for k, bs := range b.adKeys {
		nk := uint64(remap(uint32(k>>32)))<<32 | uint64(remap(uint32(k)))
		a.addAd(nk, bs.firstIdx, remap(bs.first))
		if bs.multiIdx {
			if s := a.adKeys[nk]; !s.multiIdx {
				s.multiIdx = true
				a.adKeys[nk] = s
			}
		}
		if bs.more {
			for _, v := range b.adMore[k] {
				a.addAd(nk, bs.firstIdx, remap(v))
			}
		}
	}
	for k, bs := range b.sessKeys {
		nk := sessKey{inst: remap(k.inst), key: remap(k.key), host: remap(k.host), src: remap(k.src)}
		var more [2][]uint32
		if bs.more {
			more = b.sessMore[k]
		}
		for side, first := range bs.first {
			if first == intern.None {
				continue
			}
			a.addSess(nk, side, remap(first))
			for _, v := range more[side] {
				a.addSess(nk, side, remap(v))
			}
		}
	}
}

// Result runs filters (i)–(iv) and the manual pass over everything
// observed so far. It does not mutate the accumulator (beyond the pure
// per-value heuristic memo): observing more and asking again yields the
// classification of the larger stream. Verdicts are written straight
// into the Result's id-indexed slice, in no particular order: the
// funnel counts do not depend on it.
func (a *Accumulator) Result() *Result {
	res := &Result{
		TotalTokens: a.nValues,
		reasons:     make([]reasonCode, a.tab.Len()),
		tab:         a.tab,
	}
	codes := res.reasons
	// Filter (iii): keys whose value changed between base visit and the
	// next-day revisit mark those values as session identifiers.
	for k, s := range a.sessKeys {
		if !a.sessChanged(k, s) {
			continue
		}
		codes[s.first[sideBase]] = codeSessionID
		codes[s.first[sideRevisit]] = codeSessionID
		if s.more {
			for _, vs := range a.sessMore[k] {
				for _, v := range vs {
					codes[v] = codeSessionID
				}
			}
		}
	}
	// Filter (ii): keys whose values differ across ad URLs on the same
	// page mark all their values as ad identifiers. It precedes (iii),
	// so it overwrites.
	for k, ad := range a.adKeys {
		if ad.multiIdx && ad.more {
			codes[ad.first] = codeAdIdentifier
			for _, v := range a.adMore[k] {
				codes[v] = codeAdIdentifier
			}
		}
	}
	// Filter (i) precedes both; values neither filter marked go through
	// the per-value heuristics.
	var counts [numCodes]int
	for id := range a.values {
		switch v := &a.values[id]; {
		case !v.seen:
			continue
		case v.multi:
			codes[id] = codeCrossInstance
		case codes[id] == codeNone:
			codes[id] = a.heuristicCode(uint32(id))
		}
		counts[codes[id]]++
	}
	res.ByReason = make(map[Reason]int)
	for c, n := range counts {
		if n > 0 {
			res.ByReason[reasonNames[c]] = n
		}
	}
	return res
}

// heuristicCode classifies one value through filter (iv) and the
// manual pass, memoised by intern id: the verdict is a pure function of
// the value bytes, so it is computed once per distinct value however
// many times Result runs.
func (a *Accumulator) heuristicCode(id uint32) reasonCode {
	v := a.state(id)
	if v.heur != codeNone {
		return v.heur
	}
	val := a.tab.Str(id)
	var c reasonCode
	switch {
	case len(val) < MinIDLength || LooksLikeTimestamp(val) ||
		LooksLikeURL(val) || IsEnglishWords(val) || LooksLikePhrase(val):
		c = codeHeuristics
	case !a.cfg.SkipManualPass && (LooksLikeCoordinates(val) ||
		LooksLikeAcronym(val) || isWordCombination(val)):
		c = codeManualPass
	default:
		c = codeUserID
	}
	v.heur = c
	return c
}

// PassesHeuristicsID reports whether the interned value survives the
// per-value filters under the accumulator's configuration — filter (iv)
// plus the manual pass, i.e. PassesValueHeuristics for the default
// pipeline — memoised so each distinct value is judged once across the
// whole fold however many sightings ask.
func (a *Accumulator) PassesHeuristicsID(id uint32) bool {
	return a.heuristicCode(id) == codeUserID
}

// contains reports whether s holds v. The slices it probes are one
// SERP's or one session context's further distinct values — single
// digits — so the linear probe is cheaper than any map.
func contains(s []uint32, v uint32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
