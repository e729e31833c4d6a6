package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"searchads"
	"searchads/internal/crawler"
	"searchads/internal/filterlist"
	"searchads/internal/netsim"
	"searchads/internal/urlx"
)

// The simulated web's origin layers, timed by handler shims.
const (
	layerSERP = iota
	layerAdtech
	layerAdvertiser
	numWebLayers
)

var webLayerNames = [numWebLayers]string{"serp", "adtech", "advertiser"}

// tracer holds what the traced phase records from outside the program:
// spans around the benchmark's own calls, the program's telemetry
// registry, and the origin handler shims. A nil tracer records nothing.
type tracer struct {
	spans       *recorder
	tele        *searchads.Telemetry
	web         [numWebLayers]webStats
	loadedBytes int64
}

func newTracer() *tracer {
	return &tracer{spans: newRecorder(), tele: searchads.NewTelemetry()}
}

func (tr *tracer) start(name string, parent, iter int) int {
	if tr == nil {
		return 0
	}
	return tr.spans.start(name, parent, iter)
}

func (tr *tracer) end(id int) {
	if tr != nil {
		tr.spans.end(id)
	}
}

func (tr *tracer) addLoaded(n int64) {
	if tr != nil {
		tr.loadedBytes += n
	}
}

type webStats struct {
	requests atomic.Int64
	busy     atomic.Int64 // nanoseconds
}

// timedHandler is an origin handler shim: it times every request the
// wrapped handler serves.
type timedHandler struct {
	next  netsim.Handler
	stats *webStats
}

func (h timedHandler) Serve(req *netsim.Request) *netsim.Response {
	start := time.Now()
	resp := h.next.Serve(req)
	h.stats.busy.Add(int64(time.Since(start)))
	h.stats.requests.Add(1)
	return resp
}

// probeLabel prefixes a registrable domain so Lookup resolves it to the
// site-wide handler rather than an exact-host one.
const probeLabel = "perfbench-probe."

// shimWorld re-registers every origin handler of w behind a timedHandler
// of the layer that serves it: engines are serp, redirectors adtech,
// advertiser sites and trackers advertiser. An origin of none of these
// kinds is an error, so a new kind of origin cannot go unattributed.
func (tr *tracer) shimWorld(w *searchads.World) error {
	if tr == nil {
		return nil
	}
	sites := map[string]int{}
	hosts := map[string]int{}
	for _, e := range w.Engines {
		sites[urlx.RegistrableDomain(strings.ToLower(e.Spec.Host))] = layerSERP
		for _, h := range e.Spec.ExtraHosts {
			hosts[strings.ToLower(h)] = layerSERP
		}
	}
	for _, p := range w.Redirectors.Policies() {
		if p.Wildcard {
			sites[strings.ToLower(p.Host)] = layerAdtech
		} else {
			hosts[strings.ToLower(p.Host)] = layerAdtech
		}
	}
	for _, pool := range w.SitesByEngine {
		for _, s := range pool {
			sites[strings.ToLower(s.Domain)] = layerAdvertiser
		}
	}
	for _, host := range w.Net.Hosts() {
		layer, ok := hosts[host]
		if _, tracker := w.Trackers.Lookup(host); !ok && tracker {
			layer, ok = layerAdvertiser, true
		}
		if !ok {
			return fmt.Errorf("shim: origin %s belongs to no known layer", host)
		}
		h, _ := w.Net.Lookup(host)
		w.Net.Handle(host, timedHandler{h, &tr.web[layer]})
	}
	for site, layer := range sites {
		h, ok := w.Net.Lookup(probeLabel + site)
		if !ok {
			return fmt.Errorf("shim: no site-wide handler for %s", site)
		}
		w.Net.HandleSite(site, timedHandler{h, &tr.web[layer]})
	}
	return nil
}

// replayFilter matches every recorded request of iters against the
// default filter lists, stage by stage, the way the analysis fold does.
func replayFilter(iters []*searchads.Iteration) (requests int, busy time.Duration) {
	e := searchads.DefaultFilterEngine()
	var out []filterlist.Verdict
	for _, it := range iters {
		for _, recs := range [][]crawler.RequestRecord{it.SERPRequests, it.ClickRequests, it.DestRequests} {
			infos := crawler.RequestInfos(recs)
			start := time.Now()
			out = e.MatchBatchInto(infos, out[:0])
			busy += time.Since(start)
			requests += len(infos)
		}
	}
	return requests, busy
}

// metrics derives the per-layer table of the traced phase. Layers nest
// (crawl span ⊃ browser navigation ⊃ netsim round trip ⊃ origin
// handler), so each layer's self time is its total minus the total of
// the layer it calls; the telescoping sum equals the crawl time. Shares
// are of the traced phase's capacity: its wall time times the workers
// that could run (1, or nproc for the sweep). The unattributed share is
// what no layer accounts for: the benchmark's own loop, span recording,
// and, for the sweep, idle workers.
func (tr *tracer) metrics(b *bench, w workload, untraced, traced []outcome) map[string]metric {
	snap := tr.tele.Snapshot()
	stage := func(name string) telemetryStage {
		st, _ := snap.StageByName(name)
		return telemetryStage{count: st.Wall.Count, total: st.Wall.Mean * time.Duration(st.Wall.Count),
			p50: st.Wall.P50, p99: st.Wall.P99, max: st.Wall.Max}
	}
	counter := func(name string) float64 { return float64(snap.Counter(name)) }
	spans := tr.spans.snapshot()
	folded := foldSelf(spans)

	var wall time.Duration
	var use usage
	for _, o := range traced {
		wall += o.wall
		use = use.add(o.use)
	}
	workers := 1.0
	if w.name == "armsrace-sweep" {
		workers = float64(runtime.NumCPU())
	}
	capacity := wall.Seconds() * workers

	rt, nav, iter := stage("netsim_roundtrip"), stage("browser_navigate"), stage("crawler_iteration")
	ck, fold, cell, qw := stage("checkpoint_write"), stage("analysis_fold"), stage("sweep_cell"), stage("queue_wait")

	var web [numWebLayers]time.Duration
	var webTotal time.Duration
	for i := range web {
		web[i] = time.Duration(tr.web[i].busy.Load())
		webTotal += web[i]
	}
	// The crawl time is measured from outside where the workload sees
	// iteration boundaries, and by the crawler's own telemetry in the
	// sweep, whose cells hide them.
	crawlTotal := folded["crawler.iteration"].Total
	if crawlTotal == 0 {
		crawlTotal = iter.total
	}
	self := map[string]time.Duration{
		"netsim":     rt.total - webTotal,
		"browser":    nav.total - rt.total,
		"checkpoint": ck.total,
		"crawler":    crawlTotal - nav.total - ck.total + folded["crawler.load"].Total,
		"analysis":   folded["analysis.add"].Self + folded["analysis.report"].Self + fold.total,
		"sweep":      0,
	}
	if cell.count > 0 {
		self["sweep"] = cell.total - iter.total - fold.total
	}
	for i, name := range webLayerNames {
		self[name] = web[i]
	}
	var attributed time.Duration
	for _, d := range self {
		attributed += d
	}

	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	share := func(d time.Duration) float64 {
		if capacity == 0 {
			return 0
		}
		return d.Seconds() / capacity
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("websim.build_ms", ms(median(b.builds)), "ms")
	for i, name := range webLayerNames {
		n := float64(tr.web[i].requests.Load())
		put(name+".requests", n, "count")
		put(name+".busy_ms", ms(web[i]), "ms")
		put(name+".us_per_req", ratio(us(web[i]), n), "us")
		put(name+".share", share(web[i]), "share")
	}

	crawled := counter("iterations")
	put("netsim.roundtrips", counter("roundtrips"), "count")
	put("netsim.roundtrips_per_iter", ratio(counter("roundtrips"), crawled), "count")
	put("netsim.self_ms", ms(self["netsim"]), "ms")
	put("netsim.roundtrip_p50_us", us(rt.p50), "us")
	put("netsim.roundtrip_p99_us", us(rt.p99), "us")
	put("netsim.faults", counter("faults"), "count")
	put("netsim.share", share(self["netsim"]), "share")

	put("browser.navigations", counter("navigations"), "count")
	put("browser.self_ms", ms(self["browser"]), "ms")
	put("browser.navigate_p50_ms", ms(nav.p50), "ms")
	put("browser.navigate_p99_ms", ms(nav.p99), "ms")
	put("browser.retries", counter("retries"), "count")
	put("browser.captcha_solves", counter("captcha_solves"), "count")
	put("browser.session_rotations", counter("session_rotations"), "count")
	put("browser.share", share(self["browser"]), "share")

	load := folded["crawler.load"].Total
	put("crawler.iterations", crawled, "count")
	put("crawler.self_ms", ms(self["crawler"]), "ms")
	put("crawler.iter_p50_ms", ms(iter.p50), "ms")
	put("crawler.iter_p99_ms", ms(iter.p99), "ms")
	put("crawler.errors", counter("iteration_errors"), "count")
	put("crawler.load_ms", ms(load), "ms")
	put("crawler.load_mb_per_s", ratio(float64(tr.loadedBytes)/1e6, load.Seconds()), "MB/s")
	put("crawler.queue_wait_p50_ms", ms(qw.p50), "ms")
	put("crawler.queue_wait_p99_ms", ms(qw.p99), "ms")
	put("crawler.recovered", counter("iterations_recovered"), "count")
	put("crawler.lost", counter("iterations_lost"), "count")
	put("crawler.abandoned", counter("iterations_abandoned"), "count")
	put("crawler.breaker_sheds", counter("breaker_sheds"), "count")
	put("crawler.share", share(self["crawler"]), "share")

	adds := spanDurations(spans, "analysis.add")
	foldP50, foldP99 := quantileDur(adds, 0.5), quantileDur(adds, 0.99)
	if len(adds) == 0 {
		foldP50, foldP99 = fold.p50, fold.p99
	}
	put("analysis.folds", float64(len(adds))+float64(fold.count), "count")
	put("analysis.fold_busy_ms", ms(folded["analysis.add"].Total+fold.total), "ms")
	put("analysis.fold_p50_us", us(foldP50), "us")
	put("analysis.fold_p99_us", us(foldP99), "us")
	put("analysis.report_ms", ms(folded["analysis.report"].Total), "ms")
	put("analysis.share", share(self["analysis"]), "share")

	requests, busy := replayFilter(b.filterIters)
	put("filterlist.requests", float64(requests), "count")
	put("filterlist.busy_ms", ms(busy), "ms")
	put("filterlist.ns_per_req", ratio(float64(busy), float64(requests)), "ns")

	writes := counter("checkpoint_writes")
	put("checkpoint.writes", writes, "count")
	put("checkpoint.bytes_per_write", ratio(counter("checkpoint_bytes"), writes), "bytes")
	put("checkpoint.busy_ms", ms(ck.total), "ms")
	put("checkpoint.write_p50_ms", ms(ck.p50), "ms")
	put("checkpoint.write_max_ms", ms(ck.max), "ms")
	put("checkpoint.share", share(ck.total), "share")

	put("sweep.cells", counter("sweep_cells"), "count")
	put("sweep.cell_errors", counter("sweep_cell_errors"), "count")
	put("sweep.cell_p50_ms", ms(cell.p50), "ms")
	put("sweep.cell_max_ms", ms(cell.max), "ms")
	put("sweep.pool_busy_share", share(cell.total), "share")
	put("sweep.share", share(self["sweep"]), "share")

	put("runtime.gc_cycles", float64(use.gcCycles), "count")
	put("runtime.gc_pause_ms", float64(use.gcPauseNs)/1e6, "ms")
	put("runtime.gc_cpu_share", ratio(use.gcCPU, use.usedCPU), "share")

	put("telemetry.overhead_share", ratio(medianF(repWalls(traced)), medianF(repWalls(untraced)))-1, "share")
	put("unattributed.share", share(time.Duration(capacity*1e9)-attributed), "share")
	return out
}

type telemetryStage struct {
	count                uint64
	total, p50, p99, max time.Duration
}

func spanDurations(spans []span, name string) []float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, float64(s.dur()))
		}
	}
	return ds
}

func quantileDur(xs []float64, q float64) time.Duration {
	return time.Duration(quantile(xs, q))
}

func repWalls(reps []outcome) []float64 {
	ws := make([]float64, len(reps))
	for i, o := range reps {
		ws[i] = float64(o.wall)
	}
	return ws
}
