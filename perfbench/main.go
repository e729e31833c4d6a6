// Command perfbench is the repository's benchmark: it runs one workload
// of the simulated study for a fixed time, checks every repetition's
// output against a committed digest and an independently computed
// reference, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"iters_per_s": {"value": 1402.7, "unit": "1/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones (see README.md). Build and run it through run.py:
//
//	python3 perfbench/run.py --workload paper-study --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"searchads"
)

//go:embed digests.json
var committedDigests []byte

// workDir holds each run's scratch directory (datasets, checkpoints)
// and the traced run's span file. It is relative to the checkout root,
// where run.py starts the program.
const workDir = ".bench_build/perfbench"

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs and outputs")
	seconds := flag.Int("seconds", 25, "measured seconds (split in two halves when -trace 1)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = per-layer metrics from a traced run")
	record := flag.String("record", "", "write this run's self-checked digest into the named digests file instead of comparing")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	ctx := context.Background() //lint:allow ctxflow the benchmark's main owns the root context, like a cmd/ main
	b := &bench{seed: *seed, work: scratch}
	meta := runMeta(w, *seed, *seconds, *trace)

	setup, err := b.setUp(ctx, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	res := &result{}
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		reps := b.phase(ctx, w, budget, res)
		ref := b.check(ctx, w, reps, *record, res)
		res.Metrics = endToEnd(setup, reps, res.Correct)
		meta["reference"] = ref
		meta["rep_ms"] = repMillis(reps)
	} else {
		untraced := b.phase(ctx, w, budget/2, res)
		b.tr = newTracer()
		traced := b.phase(ctx, w, budget/2, res)
		ref := b.check(ctx, w, append(untraced, traced...), *record, res)
		res.Metrics = b.tr.metrics(b, w, untraced, traced)
		meta["reference"] = ref
		meta["rep_ms"] = map[string][]int64{"untraced": repMillis(untraced), "traced": repMillis(traced)}
		spansPath := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := b.tr.spans.writeJSONL(spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		} else {
			meta["spans"] = spansPath
		}
	}
	meta["loadavg_end"] = loadAvg()
	meta["setup_samples"] = len(b.setupSamples)

	printTable(res.Metrics)
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output. An operation is one
// repetition of the workload; it fails when it returns an error or its
// output digest is wrong.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one repetition's measured part and its output.
type outcome struct {
	wall   time.Duration
	use    usage   // the runtime's accounting over the measured part
	rssMB  float64 // the process's high-water RSS during the repetition
	iters  int     // iterations crawled, or loaded and folded
	ok     int     // iterations without an error
	digest string
	err    error
}

func (o *outcome) count(it *searchads.Iteration) {
	o.iters++
	if it.Error == "" {
		o.ok++
	}
}

// bench is the state one run threads through its workload.
type bench struct {
	seed         int64
	work         string          // per-run scratch directory inside the checkout
	tr           *tracer         // nil outside the traced phase
	m            meter           // the current repetition's measured part
	builds       []time.Duration // every world build of the run
	setupSamples []time.Duration
	filterIters  []*searchads.Iteration // the reference crawl, replayed through the filter lists
}

// setUp warms the process-wide singletons once, then repeats the
// workload's own set-up at least three times and, while that costs
// under a second, up to 200 times, and returns the warm-up plus the
// median repetition. A world build takes milliseconds, so a median of
// many is what keeps setup_s steady.
func (b *bench) setUp(ctx context.Context, w workload) (time.Duration, error) {
	start := time.Now()
	searchads.DefaultFilterEngine().Match(searchads.FilterRequest{URL: "https://example.com/", Type: searchads.TypeDocument})
	searchads.DefaultEntities()
	warm := time.Since(start)
	var spent time.Duration
	for len(b.setupSamples) < 3 || (len(b.setupSamples) < 200 && spent < time.Second) {
		t := time.Now()
		if err := w.setup(ctx, b); err != nil {
			return 0, err
		}
		d := time.Since(t)
		spent += d
		b.setupSamples = append(b.setupSamples, d)
	}
	return warm + median(b.setupSamples), nil
}

// phase repeats the workload until its measured time reaches budget
// (at least once). Before every repetition the heap is collected and
// returned to the system and the RSS high-water mark reset, so one
// repetition's garbage is charged neither to the next one's time nor
// to its peak memory.
func (b *bench) phase(ctx context.Context, w workload, budget time.Duration, res *result) []outcome {
	var outs []outcome
	var spent time.Duration
	for len(outs) == 0 || spent < budget {
		debug.FreeOSMemory()
		resetPeakRSS()
		b.m = meter{}
		o := w.rep(ctx, b)
		o.wall, o.use, o.rssMB = b.m.wall, b.m.use, peakRSSMB()
		spent += o.wall
		outs = append(outs, o)
		res.Attempted++
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: repetition failed:", o.err)
			break
		}
	}
	return outs
}

// check compares every repetition's digest with the workload's
// reference path and, when one is committed for this seed, with the
// committed digest. It sets res.Correct and res.Failed and returns how
// the digest was verified.
func (b *bench) check(ctx context.Context, w workload, reps []outcome, record string, res *result) string {
	ref, iters, err := w.reference(ctx, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference:", err)
		res.Failed = len(reps)
		return "reference failed"
	}
	b.filterIters = iters
	committed, verdict := committedDigest(w.name, b.seed)
	if record == "" && committed != "" && committed != ref {
		fmt.Fprintf(os.Stderr, "perfbench: reference digest %s differs from committed %s\n", ref, committed)
		verdict = "committed digest differs from reference"
		res.Failed = len(reps)
		return verdict
	}
	for i, o := range reps {
		if o.err != nil || o.digest != ref {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d digest %q, want %s (err %v)\n", i, o.digest, ref, o.err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	if record != "" && res.Correct {
		if err := recordDigest(record, w.name, b.seed, ref); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Correct = false
		}
		return "recorded " + ref
	}
	return verdict + " " + ref
}

// committedDigest returns the committed digest for (workload, seed)
// and a note saying whether one exists.
func committedDigest(workload string, seed int64) (string, string) {
	var all map[string]map[string]string
	if err := json.Unmarshal(committedDigests, &all); err != nil {
		return "", "digests.json unreadable: " + err.Error()
	}
	if d := all[workload][strconv.FormatInt(seed, 10)]; d != "" {
		return d, "committed and reference"
	}
	return "", "reference only (no committed digest for this seed)"
}

func recordDigest(path, workload string, seed int64, digest string) error {
	all := map[string]map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	}
	if all[workload] == nil {
		all[workload] = map[string]string{}
	}
	all[workload][strconv.FormatInt(seed, 10)] = digest
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func reportDigest(r *searchads.Report) (string, error) {
	data, err := r.JSON()
	if err != nil {
		return "", fmt.Errorf("encode report: %w", err)
	}
	return sha(data), nil
}

// endToEnd derives the six end-to-end metrics. iter_ok_share is 0 when
// the output check failed.
func endToEnd(setup time.Duration, reps []outcome, correct bool) map[string]metric {
	var rates, rss []float64
	var iters, ok int
	var use usage
	for _, o := range reps {
		if o.wall > 0 {
			rates = append(rates, float64(o.iters)/o.wall.Seconds())
		}
		rss = append(rss, o.rssMB)
		iters += o.iters
		ok += o.ok
		use = use.add(o.use)
	}
	okShare := 0.0
	if correct && iters > 0 {
		okShare = float64(ok) / float64(iters)
	}
	perIter := func(n uint64) float64 {
		if iters == 0 {
			return 0
		}
		return float64(n) / float64(iters)
	}
	return map[string]metric{
		"setup_s":         {setup.Seconds(), "s"},
		"iters_per_s":     {medianF(rates), "1/s"},
		"peak_rss_mb":     {medianF(rss), "MB"},
		"allocs_per_iter": {perIter(use.mallocs), "count"},
		"bytes_per_iter":  {perIter(use.bytes), "bytes"},
		"iter_ok_share":   {okShare, "share"},
	}
}

// meter accumulates the measured parts of one repetition: wall time
// and the runtime's allocation and collector accounting.
type meter struct {
	wall time.Duration
	use  usage
	t0   time.Time
	u0   usage
}

func (m *meter) start() {
	m.u0 = readUsage()
	m.t0 = time.Now()
}

func (m *meter) stop() {
	d := time.Since(m.t0)
	m.wall += d
	m.use = m.use.add(readUsage().sub(m.u0))
}

// usage is the Go runtime's cumulative allocation and collector
// accounting, or a difference of two readings.
type usage struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	gcCPU, usedCPU float64 // seconds; usedCPU excludes idle time
}

// readUsage reads the allocator's counters with the world stopped, and
// the collector's CPU estimates.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		if samples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return samples[i].Value.Float64()
	}
	return usage{
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
		gcCPU:     val(0),
		usedCPU:   val(1) - val(2),
	}
}

func (u usage) sub(o usage) usage {
	return usage{u.mallocs - o.mallocs, u.bytes - o.bytes, u.gcCycles - o.gcCycles,
		u.gcPauseNs - o.gcPauseNs, u.gcCPU - o.gcCPU, u.usedCPU - o.usedCPU}
}

func (u usage) add(o usage) usage {
	return usage{u.mallocs + o.mallocs, u.bytes + o.bytes, u.gcCycles + o.gcCycles,
		u.gcPauseNs + o.gcPauseNs, u.gcCPU + o.gcCPU, u.usedCPU + o.usedCPU}
}

// resetPeakRSS restarts the kernel's RSS high-water mark at the
// current RSS. Where that is not possible, peakRSSMB reads the
// high-water mark of the whole process instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the resident set size's high-water mark since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kib * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func repMillis(reps []outcome) []int64 {
	ms := make([]int64, len(reps))
	for i, o := range reps {
		ms[i] = o.wall.Milliseconds()
	}
	return ms
}

func median(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(medianF(fs))
}

func medianF(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// runMeta records what the result depends on besides the code.
func runMeta(w workload, seed int64, seconds, trace int) map[string]any {
	return map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"input":         w.size,
		"seconds":       seconds,
		"trace":         trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"loadavg_start": loadAvg(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	fields := strings.Fields(string(data))
	return strings.Join(fields[:min(3, len(fields))], " ")
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
