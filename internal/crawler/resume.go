package crawler

import "fmt"

// ResumeState fast-forwards a crawl past iterations an earlier run of
// the same configuration already recorded. It carries the two pieces of
// cross-iteration state a crawl accumulates:
//
//   - Done: the per-engine cursor — how many iterations of each
//     engine's chain have been crawled and emitted. Resumed chains
//     start at that index.
//   - Visited: the per-engine set of landing domains already clicked,
//     in click order — the state behind the unvisited-first ad choice
//     (§3.1). Without it the first resumed iteration would re-click a
//     domain the killed run had already visited and every later click
//     would diverge.
//
// Everything else an iteration observes is derived, not accumulated:
// identifier streams are keyed by (engine, iteration) instance labels,
// each browser profile runs a private virtual clock, and fault plans
// draw per (client, serial) — so a fresh world that simply skips the
// first Done[engine] iterations of each chain emits the remaining
// iterations byte-identical to the uninterrupted crawl. That is the
// "fast-forward the detrand state" operation: nothing is replayed, the
// derivation keys alone reposition every stream.
type ResumeState struct {
	// Done maps engine name → completed iteration count.
	Done map[string]int `json:"done"`
	// Visited maps engine name → landing domains clicked so far.
	Visited map[string][]string `json:"visited,omitempty"`
	// Breaker maps engine name → the chain's breaker-event history (one
	// byte per crawled iteration: 's' shed, 'f' faulted, 'o' ok — see
	// breakerEvent). The resumed crawl replays it so the circuit breaker
	// picks up in the exact state the killed run held, even mid
	// cool-down. Engines whose history holds no fault or shed are
	// omitted: replaying all-'o' is a no-op, and omitting it keeps
	// fault-free resume state byte-identical to the pre-breaker format.
	Breaker map[string]string `json:"breaker,omitempty"`
}

// ResumeFromIterations derives the resume state from a crawled prefix
// in dataset order — typically the iterations a checkpoint preserved.
func ResumeFromIterations(its []*Iteration) *ResumeState {
	rs := &ResumeState{Done: make(map[string]int), Visited: make(map[string][]string)}
	events := make(map[string][]byte)
	for _, it := range its {
		rs.Done[it.Engine]++
		if it.ClickedAd >= 0 && it.ClickedAd < len(it.DisplayedAds) {
			rs.Visited[it.Engine] = append(rs.Visited[it.Engine], it.DisplayedAds[it.ClickedAd].LandingDomain)
		}
		events[it.Engine] = append(events[it.Engine], breakerEvent(it))
	}
	for engine, evs := range events {
		for _, ev := range evs {
			if ev != 'o' {
				if rs.Breaker == nil {
					rs.Breaker = make(map[string]string)
				}
				rs.Breaker[engine] = string(evs)
				break
			}
		}
	}
	return rs
}

// validate checks the cursor against a laid-out plan and fills the
// plan's start offsets and visited sets. A cursor that names an engine
// the plan does not crawl, or that claims more iterations than the plan
// has, reports a configuration mismatch — the checkpoint belongs to a
// different study.
func (rs *ResumeState) validate(p *crawlPlan) error {
	byName := make(map[string]int, len(p.names))
	for idx, name := range p.names {
		byName[name] = idx
	}
	for name, n := range rs.Done {
		idx, ok := byName[name]
		if !ok {
			return fmt.Errorf("crawler: resume cursor names engine %q the crawl does not include", name)
		}
		if n < 0 || n > p.counts[idx] {
			return fmt.Errorf("crawler: resume cursor for %s (%d iterations) exceeds the plan's %d", name, n, p.counts[idx])
		}
		p.start[idx] = n
	}
	for name, domains := range rs.Visited {
		idx, ok := byName[name]
		if !ok {
			return fmt.Errorf("crawler: resume visited-set names engine %q the crawl does not include", name)
		}
		for _, d := range domains {
			p.visited[idx][d] = true
		}
	}
	for name, events := range rs.Breaker {
		idx, ok := byName[name]
		if !ok {
			return fmt.Errorf("crawler: resume breaker history names engine %q the crawl does not include", name)
		}
		p.breakerEvents[idx] = events
	}
	return nil
}
