// Command e2ebench is the end-to-end benchmark of the LAQy engine. It
// generates the Star Schema Benchmark data and the paper's exploratory
// workloads from a seed, drives the public API (and, for serve-mixed, the
// HTTP server) in a closed loop for a fixed time, checks every answer
// against ground truth computed with plain loops over its own copy of the
// data, and prints one JSON result as its last line:
//
//	bash e2ebench/run.sh --workload explore --seed 1 --seconds 22 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced window.
// With --trace 1 it runs an untraced window and then a traced one, and
// reports the per-layer metrics of the traced window plus the tracing
// overhead. BENCHMARK.json lists the workloads and metrics; NOTES.md holds
// the predictions and the first baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// lineorderRows is the SSB scale every workload runs at.
	lineorderRows = 1_000_000
	// setupReps is how many times a run sets the DB up; setup_s is the median.
	setupReps = 21
	// p99Samples is the fewest timed queries a p99 is taken from: the
	// untraced window of a traced run stays open past --seconds until it has
	// timed this many, for at most another --seconds.
	p99Samples = 1000
)

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	rows     int    // lineorder rows: lineorderRows, smaller in tests
	out      string // directory for span dumps and repeat records ("" = none)
	// perturb, when set, alters every answer before it is checked; tests
	// use it to show that the check fails the run.
	perturb func(*answer)
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(res.summary)
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.out.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: ssb-exact, explore, serve-mixed or ingest")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the data and the workload inputs")
	fs.Float64Var(&seconds, "seconds", 22, "length of one measurement window")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from an extra traced window")
	fs.StringVar(&o.out, "out", "", "directory for span dumps and repeat records")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return o, errors.New("need --seconds > 0 and --trace 0 or 1")
	}
	o.rows = lineorderRows
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	return o, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out     output
	summary string
	wrong   error // why the run is not correct
}

// window is one finished phase with its timing.
type window struct {
	p          *phase
	wall       time.Duration // excluding untimed rebuilds
	mem0, mem1 runtime.MemStats
}

func run(o options) (*result, error) {
	fn := workloads[o.workload]
	prepStart := time.Now()
	d, err := generate(o.rows, o.seed)
	if err != nil {
		return nil, err
	}
	e := &env{o: o, d: d}
	switch o.workload {
	case "ssb-exact":
		e.plan.exact, err = ssbExact(d)
	case "explore":
		e.plan.sets = exploreSeqs(d, o.seed)
	case "serve-mixed":
		e.plan.exact, err = ssbExact(d)
		e.plan.sets = exploreSeqs(d, o.seed)
	case "ingest":
		e.plan.ingest, err = ingest(d, o.seed)
	}
	if err != nil {
		return nil, err
	}
	d.dropFact()
	if o.trace {
		e.spans = newSpanLog()
	}
	// The heap the benchmark itself holds (data, statements, truths) before
	// the first DB exists; live_heap_mb is what the run adds to it.
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	prep := time.Since(prepStart)

	var setups, builds []float64
	for i := 0; i < setupReps; i++ {
		e.db = nil
		runtime.GC()
		db, total, build, err := e.setup()
		if err != nil {
			return nil, err
		}
		e.db = db
		setups = append(setups, total.Seconds())
		builds = append(builds, build.Seconds())
	}
	e.fresh = true

	measure := func(spans *spanLog, minQueries int) (*window, error) {
		w := &window{}
		e.db.SetTracing(spans != nil)
		runtime.GC()
		runtime.ReadMemStats(&w.mem0)
		w.p = newPhase(d, o.seconds, spans, o.perturb)
		w.p.minQueries = minQueries
		start := time.Now()
		if err := fn(e, w.p); err != nil {
			return nil, err
		}
		w.wall = time.Since(start) - w.p.resets
		runtime.ReadMemStats(&w.mem1)
		return w, nil
	}
	// Only the untraced window of a traced run reports p99.
	minQueries := 0
	if o.trace {
		minQueries = p99Samples
	}
	plain, err := measure(nil, minQueries)
	if err != nil {
		return nil, err
	}
	windows := []*window{plain}
	var traced *window
	if o.trace {
		if traced, err = measure(e.spans, 0); err != nil {
			return nil, err
		}
		windows = append(windows, traced)
	}
	storage := e.db.StorageStats()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e.db)

	res := &result{out: output{Correct: true, Metrics: map[string]metric{}}}
	var firstErr error
	for _, w := range windows {
		res.out.Attempted += w.p.attempted
		res.out.Failed += w.p.failed + w.p.refused
		if w.p.wrong != nil && res.wrong == nil {
			res.wrong = w.p.wrong
		}
		if w.p.firstErr != nil && firstErr == nil {
			firstErr = w.p.firstErr
		}
	}
	sigs, err := passSigs(windows)
	if err != nil && res.wrong == nil {
		res.wrong = err
	}
	res.out.Correct = res.wrong == nil
	m := res.out.Metrics
	if !o.trace {
		p := plain.p
		ops := float64(p.succeeded)
		m["setup_s"] = metric{median(setups), "s"}
		m["qps"] = metric{ops / plain.wall.Seconds(), "1/s"}
		m["p50_ms"] = metric{percentile(p.lat, 0.50, plain.wall), "ms"}
		m["p95_ms"] = metric{percentile(p.lat, 0.95, plain.wall), "ms"}
		m["ok_share"] = metric{1 - share(float64(p.failed+p.refused), float64(p.attempted)), "share"}
		m["undegraded_share"] = metric{1 - share(float64(p.degraded), float64(p.attempted)), "share"}
		heap := float64(ms.HeapAlloc)
		if len(p.passHeap) > 0 {
			heap = median(p.passHeap)
		}
		m["live_heap_mb"] = metric{(heap - float64(base.HeapAlloc)) / (1 << 20), "MB"}
	} else {
		layerMetrics(m, traced, plain, sigs, median(builds), storage.PhysicalBytes, storage.LogicalBytes)
	}

	var sb strings.Builder
	sort.Float64s(setups)
	fmt.Fprintf(&sb, "inputs and truths: %.2fs\n", prep.Seconds())
	fmt.Fprintf(&sb, "setup: %d reps, s min=%.3f median=%.3f max=%.3f\n", len(setups), setups[0], median(setups), setups[len(setups)-1])
	for i, w := range windows {
		p := w.p
		fmt.Fprintf(&sb, "window %d (traced=%v): %.2fs, ops attempted=%d succeeded=%d degraded=%d refused=%d failed=%d, timed queries=%d appends=%d\n",
			i, p.spans != nil, w.wall.Seconds(), p.attempted, p.succeeded, p.degraded, p.refused, p.failed, len(p.lat), len(p.appendLat))
		fmt.Fprintf(&sb, "  query ms:")
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			fmt.Fprintf(&sb, " p%g=%.3f", q*100, percentile(p.lat, q, w.wall))
		}
		sb.WriteString("\n")
	}
	if n := len(plain.p.lat); o.trace && n < p99Samples {
		fmt.Fprintf(&sb, "p99_ms is taken from only %d timed queries (fewer than %d)\n", n, p99Samples)
	}
	for _, k := range sortedKeys(sigs) {
		fmt.Fprintf(&sb, "pass %s: %+v\n", k, sigs[k])
	}
	if note := repeatCheck(o, sigs); note != "" {
		sb.WriteString(note + "\n")
	}
	if firstErr != nil {
		fmt.Fprintf(&sb, "first failed op: %v\n", firstErr)
	}
	if res.wrong != nil {
		fmt.Fprintf(&sb, "INCORRECT: %v\n", res.wrong)
	}
	res.summary = strings.TrimRight(sb.String(), "\n")
	if o.trace && o.out != "" {
		if err := e.spans.write(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// passSigs checks that every completed pass of each kind, across all
// windows, is identical, and returns one per kind.
func passSigs(windows []*window) (map[string]passSig, error) {
	out := map[string]passSig{}
	for _, w := range windows {
		for kind, sigs := range w.p.passes {
			for _, s := range sigs {
				first, ok := out[kind]
				if !ok {
					out[kind] = s
					continue
				}
				if s != first {
					return out, fmt.Errorf("%s passes differ: %+v vs %+v", kind, first, s)
				}
			}
		}
	}
	return out, nil
}

// repeatCheck compares the pass signatures with those an earlier run of the
// same workload, seed and size recorded in the output directory, for the
// input sets both runs completed, and records the new ones. It returns a
// flag line on a difference.
func repeatCheck(o options, sigs map[string]passSig) string {
	if o.out == "" || len(sigs) == 0 {
		return ""
	}
	path := filepath.Join(o.out, fmt.Sprintf("repeat-%s-seed%d-rows%d.json", o.workload, o.seed, o.rows))
	prev := map[string]passSig{}
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &prev)
	} else if errors.Is(err, os.ErrNotExist) {
		err = nil
	}
	if err != nil {
		return "repeat-check: " + err.Error()
	}
	var diffs []string
	for _, k := range sortedKeys(sigs) {
		was, ok := prev[k]
		switch {
		case !ok:
			prev[k] = sigs[k]
		case was != sigs[k]:
			diffs = append(diffs, fmt.Sprintf("%s was %+v, now %+v", k, was, sigs[k]))
		}
	}
	if raw, err = json.Marshal(prev); err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		return "repeat-check: " + err.Error()
	}
	if len(diffs) > 0 {
		return "repeat-check: DIFFERS from an earlier run of this seed: " + strings.Join(diffs, "; ")
	}
	return ""
}

// layerMetrics fills the per-layer metrics from the traced window; the
// tracing overhead compares its p50 with the untraced window's.
func layerMetrics(m map[string]metric, tw, plain *window, sigs map[string]passSig, buildS float64, phys, logical int64) {
	p := tw.p
	dl := &p.deltas
	queries := float64(len(p.lat))
	spanMean := func(unit time.Duration, names ...string) float64 {
		var acc durs
		for _, n := range names {
			if a := p.byName[n]; a != nil {
				acc.n += a.n
				acc.sum += a.sum
			}
		}
		return acc.mean(unit)
	}
	// Counts that repeat exactly: the first input set of each kind of pass,
	// which every run completes.
	var sum passSig
	for k, s := range sigs {
		if !strings.HasSuffix(k, "#0") {
			continue
		}
		sum.Queries += s.Queries
		sum.Online += s.Online
		sum.Partial += s.Partial
		sum.Offline += s.Offline
		sum.RowsScanned += s.RowsScanned
		sum.Maintained += s.Maintained
	}
	morsels := float64(dl.c["laqy_engine_morsels_total"])
	hits := float64(dl.c["laqy_store_lookup_full_total"] + dl.c["laqy_store_lookup_partial_total"])
	ops := float64(p.succeeded)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	set("sql.parse_us", "us", spanMean(time.Microsecond, "parse"))
	set("sql.plan_us", "us", spanMean(time.Microsecond, "plan"))
	set("governor.admit_wait_us", "us", dl.mean("laqy_governor_wait_seconds", time.Microsecond))
	set("governor.rejected", "count", float64(dl.c["laqy_governor_rejected_total"]+dl.c["laqy_governor_queue_timeouts_total"]))
	set("engine.pipeline_ms", "ms", share(float64(dl.h["laqy_engine_wall_seconds"].Sum)/float64(time.Millisecond), queries))
	set("engine.rows_scanned_per_op", "rows", share(float64(sum.RowsScanned), float64(sum.Queries)))
	set("engine.pruned_share", "share", share(float64(dl.c["laqy_engine_morsels_pruned_total"]), morsels))
	set("engine.encoded_share", "share", share(float64(dl.c["laqy_engine_morsels_encoded_total"]), morsels))
	set("engine.fused_share", "share", share(float64(dl.c["laqy_engine_morsels_fused_total"]), morsels))
	set("engine.segment_merge_ms", "ms", dl.mean("laqy_engine_segment_merge_seconds", time.Millisecond))
	set("storage.phys_ratio", "ratio", share(float64(phys), float64(logical)))
	set("storage.build_s", "s", buildS)
	set("core.build_ms", "ms", spanMean(time.Millisecond, "online sample", "Δ-sample"))
	set("core.online", "count", float64(sum.Online))
	set("core.partial", "count", float64(sum.Partial))
	set("core.offline", "count", float64(sum.Offline))
	set("core.support_fallbacks", "count", float64(dl.c["laqy_sampler_support_fallback_total"]))
	set("core.maintained", "count", float64(sum.Maintained))
	set("sample.merge_ms", "ms", dl.mean("laqy_sampler_merge_seconds", time.Millisecond))
	set("sample.tighten_ms", "ms", spanMean(time.Millisecond, "tighten"))
	set("store.lookup_us", "us", spanMean(time.Microsecond, "store lookup"))
	set("store.reuse_share", "share", share(hits, hits+float64(dl.c["laqy_store_lookup_miss_total"])))
	set("store.evictions", "count", float64(dl.c["laqy_store_evictions_total"]))
	set("store.mb", "MB", float64(p.storeMax)/(1<<20))
	set("laqy.finish_us", "us", p.rootSelf.mean(time.Microsecond))
	set("server.overhead_us", "us", p.overhead.mean(time.Microsecond))
	set("server.resp_kb", "KB", share(float64(p.respB)/1024, float64(p.responses)))
	set("client.decode_us", "us", p.decode.mean(time.Microsecond))
	set("runtime.alloc_kb_per_op", "KB", share(float64(tw.mem1.TotalAlloc-tw.mem0.TotalAlloc)/1024, ops))
	set("runtime.gc_cycles", "count", float64(tw.mem1.NumGC-tw.mem0.NumGC))
	set("trace.overhead_p50_ms", "ms", percentile(p.lat, 0.5, tw.wall)-percentile(plain.p.lat, 0.5, plain.wall))
	set("latency.samples", "count", queries)
	set("p99_ms", "ms", percentile(plain.p.lat, 0.99, plain.wall))
	set("rel_err_mean", "share", share(p.relErrSum, float64(p.approx)))
	set("ci_coverage", "share", share(float64(p.covered), float64(p.groups)))
	set("fail_share", "share", share(float64(p.failed+p.refused), float64(p.attempted)))
	set("degraded_share", "share", share(float64(p.degraded), float64(p.attempted)))
	set("append_p50_ms", "ms", percentile(p.appendLat, 0.50, tw.wall))
	set("append_p90_ms", "ms", percentile(p.appendLat, 0.90, tw.wall))
}

// percentile returns the nearest-rank q-quantile of v. A failed or refused
// op (+Inf) misses any latency limit; it reads as the whole window.
func percentile(v []float64, q float64, wall time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	x := s[int(math.Ceil(q*float64(len(s))))-1]
	if math.IsInf(x, 1) {
		return float64(wall) / float64(time.Millisecond)
	}
	return x
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
