package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"laqy/internal/expr"
	"laqy/internal/rng"
	"laqy/internal/sample"
	"laqy/internal/storage"
)

// Stats is the per-phase execution breakdown the paper's Figure 11 plots.
//
// Scan and Process are per-worker CPU time totals divided by the worker
// count — an estimate of the wall-clock share of each phase under even load
// — while Merge and Wall are measured wall-clock durations.
type Stats struct {
	// Scan is the time spent evaluating the scan filter (predicate over
	// fact columns producing selection vectors).
	Scan time.Duration
	// Process is the time spent past the scan: join probes, gathers, and
	// sink work (aggregation or reservoir admission).
	Process time.Duration
	// Merge is the time to fold per-worker partial states (and, for LAQy,
	// to merge Δ-samples with stored ones; the caller adds that share).
	Merge time.Duration
	// Wall is the end-to-end execution wall time.
	Wall time.Duration
	// RowsScanned is the number of fact rows considered by the scan
	// (including rows covered by pruned morsels, whose disqualification
	// the zone map proved without reading them).
	RowsScanned int64
	// RowsSelected is the number of rows surviving filter and joins.
	RowsSelected int64
	// Workers is the parallelism used (capped at the morsel count: extra
	// workers would idle and skew the per-phase averages).
	Workers int
	// MorselsPruned counts morsels skipped outright because the zone map
	// proved no row could match the scan filter.
	MorselsPruned int64
	// MorselsFull counts morsels that took the full-morsel fast path: the
	// zone map proved every row matches, so the selection vector was
	// range-filled with no per-row compares.
	MorselsFull int64
	// MorselsEncoded counts morsels whose filter evaluated directly over a
	// sealed segment's encoded columns (const/RLE/narrow kernels) instead of
	// the plain vectors.
	MorselsEncoded int64
	// MorselsFused counts morsels the fused aggregate path folded straight
	// into partial accumulators — pruned-full morsels and all-pass
	// RLE/const runs — without producing a selection vector.
	MorselsFused int64
	// Segments is the number of segment-scoped builds the coordinator
	// planned (0 for monolithic runs).
	Segments int
	// SegmentsBuilt is how many of those actually ran; the difference was
	// dropped under deadline or memory pressure (the drop_segments
	// degradation rung).
	SegmentsBuilt int
	// SegmentParallelism is the concurrent segment-build degree used.
	SegmentParallelism int
	// RowsDropped counts fact rows in dropped segments — rows the merged
	// sample does not represent; callers extrapolate estimates by the
	// resulting coverage ratio.
	RowsDropped int64
	// SegmentDrops attributes each dropped segment (which segment, how
	// much weight, which shard for remote sources, why) for degradation
	// labeling and EXPLAIN ANALYZE.
	SegmentDrops []SegmentDrop
}

// Add accumulates another query's stats (used for cumulative sequences).
func (s *Stats) Add(o Stats) {
	s.Scan += o.Scan
	s.Process += o.Process
	s.Merge += o.Merge
	s.Wall += o.Wall
	s.RowsScanned += o.RowsScanned
	s.RowsSelected += o.RowsSelected
	s.MorselsPruned += o.MorselsPruned
	s.MorselsFull += o.MorselsFull
	s.MorselsEncoded += o.MorselsEncoded
	s.MorselsFused += o.MorselsFused
	s.Segments += o.Segments
	s.SegmentsBuilt += o.SegmentsBuilt
	s.RowsDropped += o.RowsDropped
	s.SegmentDrops = append(s.SegmentDrops, o.SegmentDrops...)
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	if o.SegmentParallelism > s.SegmentParallelism {
		s.SegmentParallelism = o.SegmentParallelism
	}
}

// rowSink consumes gathered post-join rows. cols is aligned with the
// "needed columns" order of the run; n is the row count. Each worker owns
// one sink; no synchronization inside consume.
type rowSink interface {
	consume(cols [][]int64, n int)
}

// failableSink is a rowSink that can fail mid-run (e.g. a memory-budget
// denial while growing a hash table). runPipeline polls sinkErr at morsel
// boundaries: a non-nil error aborts the whole run — all workers, not just
// the one that tripped — and becomes the run's error. consume must be a
// no-op once sinkErr is non-nil, so one morsel of overrun is the worst
// case (the budget is soft by design).
type failableSink interface {
	rowSink
	sinkErr() error
}

// DefaultWorkers returns the engine's default parallelism.
func DefaultWorkers() int { return runtime.NumCPU() }

// morselScratch is one worker's reusable per-morsel buffers: the selection
// vector, join-probe row maps, gathered column vectors, and the gather
// scratch. All are sized in DefaultMorselSize units, so a leased set fits
// any pipeline. Pooling matters because the segment-parallel coordinator
// runs one sub-pipeline per segment: without reuse a W-worker build over S
// segments would allocate (and the allocator would zero) S×W sets of
// multi-megabyte buffers per build, which dominates single-core segmented
// builds. The pool caps live sets at the peak concurrent worker count.
type morselScratch struct {
	sel      []int32
	dimRows  [][]int32
	gathered [][]int64
	scratch  []int64
}

var morselScratchPool = sync.Pool{New: func() any { return new(morselScratch) }}

// leaseMorselScratch returns a scratch set with at least nJoins probe maps
// and nSources gather vectors; return it with morselScratchPool.Put.
func leaseMorselScratch(nJoins, nSources int) *morselScratch {
	s := morselScratchPool.Get().(*morselScratch)
	if s.sel == nil {
		s.sel = make([]int32, 0, storage.DefaultMorselSize)
	}
	for len(s.dimRows) < nJoins {
		s.dimRows = append(s.dimRows, make([]int32, storage.DefaultMorselSize))
	}
	for len(s.gathered) < nSources {
		s.gathered = append(s.gathered, make([]int64, storage.DefaultMorselSize))
	}
	if s.scratch == nil {
		s.scratch = make([]int64, storage.DefaultMorselSize)
	}
	return s
}

// runPipeline drives the morsel-parallel scan→filter→join→gather→sink
// pipeline. exprs lists the values gathered for the sinks — plain columns
// or computed expressions (one sink per worker). It returns the per-phase
// stats; merging sink partials is the caller's job (timed into Stats.Merge
// by the callers below).
//
// The prologue (compilation, buffer setup) runs once per query and may
// allocate; the per-morsel worker loop must not.
//
//laqy:hot morsel-parallel scan driver
func runPipeline(q *Query, exprs []ColumnExpr, workers int, sinks []rowSink) (Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if len(sinks) != workers {
		return Stats{}, fmt.Errorf("engine: %d sinks for %d workers", len(sinks), workers) //laqy:allow hotalloc cold error prologue, once per query
	}
	sources, err := q.resolveExprs(exprs)
	if err != nil {
		return Stats{}, err
	}
	filter, err := expr.Compile(q.Filter, q.resolveFact)
	if err != nil {
		return Stats{}, err
	}
	joinTables, err := buildJoinTables(q)
	if err != nil {
		return Stats{}, err
	}

	scanFrom, scanTo := q.scanBounds()
	morsels := storage.MorselsRange(scanFrom, scanTo, 0)
	// Cap the parallelism at the morsel count: spawning more goroutines
	// than morsels wastes scheduling work, and dividing the per-phase CPU
	// totals by idle workers under-reports Scan/Process for small deltas.
	// (Segmented runs cap at the TOTAL morsel count across segments before
	// dividing the budget — see runStratifiedSegments — so small segments
	// don't starve the global parallelism; this local cap only trims the
	// share handed to one sub-pipeline.)
	if workers > len(morsels) {
		workers = len(morsels)
	}
	pruner := newMorselPruner(q.Fact, filter, q.DisableZoneMaps, scanFrom, scanTo)
	encs := newScanEncodings(q, filter)
	var next atomic.Int64
	var scanNanos, processNanos, selected atomic.Int64
	var prunedMorsels, fullMorsels, encodedMorsels atomic.Int64
	var canceled, aborted atomic.Bool
	start := time.Now()

	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Panic isolation: a poisoned chunk (kernel bug, corrupt
			// column) fails this query through the normal error path —
			// with the stack captured — instead of killing the process.
			// Worker-slot write: each goroutine owns workerErrs[w].
			defer func() {
				if r := recover(); r != nil {
					workerErrs[w] = panicError("morsel worker", r)
				}
			}()
			sink := sinks[w]
			fsink, failable := sink.(failableSink)
			sc := leaseMorselScratch(len(joinTables), len(sources))
			sel := sc.sel
			dimRows := sc.dimRows[:len(joinTables)]
			gathered := sc.gathered[:len(sources)]
			scratch := sc.scratch
			defer func() {
				sc.sel = sel              // keep any capacity growth with the pooled set
				morselScratchPool.Put(sc) //laqy:allow hotalloc pointer into interface, once per worker retirement (not per morsel)
			}()
			var localScan, localProcess, localSelected int64
			var localPruned, localFull, localEncoded int64
			for {
				m := int(next.Add(1)) - 1
				if m >= len(morsels) {
					break
				}
				if q.Ctx != nil && q.Ctx.Err() != nil {
					canceled.Store(true)
					break
				}
				if aborted.Load() {
					break
				}
				if failable {
					if err := fsink.sinkErr(); err != nil {
						// Worker-slot write: each goroutine owns workerErrs[w].
						workerErrs[w] = err
						aborted.Store(true)
						break
					}
				}
				mo := morsels[m]

				t0 := time.Now()
				// Zone-map consultation: skip morsels the predicate
				// provably rejects, range-fill morsels it provably
				// accepts, evaluate the rest per row.
				class := pruneNone
				if pruner != nil {
					class = pruner.classify(mo.Start, mo.End)
				}
				switch class {
				case pruneSkip:
					localPruned++
					localScan += time.Since(t0).Nanoseconds()
					continue
				case pruneFull:
					localFull++
					sel = expr.FillRange(sel[:0], mo.Start, mo.End)
				default:
					// Kernel dispatch: a morsel inside a sealed, encoded
					// segment evaluates the filter over the encoded columns;
					// everything else takes the plain vector kernels.
					var ef *expr.EncodedFilter
					if encs != nil {
						ef = encs.find(mo.Start, mo.End)
					}
					if ef != nil {
						localEncoded++
						sel = ef.SelectInto(mo.Start, mo.End, sel[:0])
					} else {
						sel = filter.SelectInto(mo.Start, mo.End, sel[:0])
					}
				}
				t1 := time.Now()
				localScan += t1.Sub(t0).Nanoseconds()

				n := len(sel)
				for j := range joinTables {
					n = joinTables[j].probe(sel[:n], dimRows, j)
				}
				if n > 0 {
					for c := range sources {
						sources[c].gather(gathered[c][:n], scratch, sel, dimRows, n)
					}
					sink.consume(gathered, n)
				}
				localProcess += time.Since(t1).Nanoseconds()
				localSelected += int64(n)
			}
			// A denial during the final morsel has no next boundary to be
			// polled at: re-check before the worker retires.
			if failable && workerErrs[w] == nil {
				if err := fsink.sinkErr(); err != nil {
					workerErrs[w] = err
					aborted.Store(true)
				}
			}
			scanNanos.Add(localScan)
			processNanos.Add(localProcess)
			selected.Add(localSelected)
			prunedMorsels.Add(localPruned)
			fullMorsels.Add(localFull)
			encodedMorsels.Add(localEncoded)
		}(w)
	}
	wg.Wait()
	if err := firstError(workerErrs); err != nil {
		return Stats{}, err
	}
	if canceled.Load() {
		return Stats{}, q.Ctx.Err()
	}

	rowsScanned := int64(scanTo - scanFrom)
	// An empty morsel set (e.g. a no-op incremental delta) spawned no
	// workers; avoid the zero division and report zero phase times.
	divisor := int64(workers)
	if divisor == 0 {
		divisor = 1
	}
	end := time.Now()
	stats := Stats{
		Scan:           time.Duration(scanNanos.Load() / divisor),
		Process:        time.Duration(processNanos.Load() / divisor),
		Wall:           end.Sub(start),
		RowsScanned:    rowsScanned,
		RowsSelected:   selected.Load(),
		Workers:        workers,
		MorselsPruned:  prunedMorsels.Load(),
		MorselsFull:    fullMorsels.Load(),
		MorselsEncoded: encodedMorsels.Load(),
	}
	finishPipeline(q, &stats, len(morsels), start, end)
	return stats, nil
}

// stratifiedSink feeds gathered rows into a per-worker stratified sample.
type stratifiedSink struct {
	sam *sample.Stratified
}

// consume hands the gathered columns to the sample's batch admission: the
// per-stratum Algorithm L skip counters avoid both the per-row RNG draw
// and the old path's double tuple copy (every row used to be staged
// through a sink-owned tuple buffer before admission; now only admitted
// tuples are materialized, straight from the gathered vectors).
//
//laqy:hot batch sink on the scan path
func (s *stratifiedSink) consume(cols [][]int64, n int) {
	s.sam.ConsiderColumns(cols, n)
}

// RunStratified executes q and builds a stratified sample over the
// qualifying rows: schema lists the captured columns with the first
// qcsWidth being the stratification (QCS) columns, k is the per-stratum
// reservoir capacity. Per-worker partial samples are merged (Algorithm 3)
// into the returned sample; the merge time is reported in Stats.Merge.
func RunStratified(q *Query, schema sample.Schema, qcsWidth, k int, seed uint64, workers int) (*sample.Stratified, Stats, error) {
	return RunStratifiedExprs(q, Cols(schema), qcsWidth, k, seed, workers)
}

// RunStratifiedExprs is RunStratified with computed capture expressions:
// the sample schema takes each expression's Name, so computed aggregates
// (e.g. lo_extendedprice*lo_discount) are sampled as materialized values.
//
// When the fact table is segmented (and Query.SegmentParallelism is not
// negative), the build fans out per segment and merges the per-segment
// reservoirs N-way at the coordinator (segment.go); otherwise it runs the
// single morsel-parallel pipeline below.
func RunStratifiedExprs(q *Query, exprs []ColumnExpr, qcsWidth, k int, seed uint64, workers int) (*sample.Stratified, Stats, error) {
	// A planner-rewritten plan of any size runs through the coordinator —
	// a single remote segment still needs the drop/degradation path.
	if sources := planSegments(q, exprs, qcsWidth, k, nil); len(sources) > 1 || (len(sources) == 1 && q.Planner != nil) {
		return runStratifiedSegments(q, sources, seed, workers)
	}
	return runStratifiedSingle(q, exprs, qcsWidth, k, seed, workers)
}

// runStratifiedSingle is the monolithic build: one morsel-parallel
// pipeline over the whole scan range, per-worker partials tree-merged.
// This is the frozen reference path the segmented coordinator must stay
// distribution-equivalent to (TestSegmentedBuildChiSquare).
func runStratifiedSingle(q *Query, exprs []ColumnExpr, qcsWidth, k int, seed uint64, workers int) (*sample.Stratified, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	schema := make(sample.Schema, len(exprs))
	for i, e := range exprs {
		schema[i] = e.Name
	}
	root := rng.NewLehmer64(seed)
	sinks := make([]rowSink, workers)
	partials := make([]*sample.Stratified, workers)
	for w := 0; w < workers; w++ {
		partials[w] = sample.NewStratified(schema, qcsWidth, k, root.Split(uint64(w)))
		sinks[w] = &stratifiedSink{sam: partials[w]}
	}
	stats, err := runPipeline(q, exprs, workers, sinks)
	if err != nil {
		return nil, stats, err
	}
	mergeStart := time.Now()
	merged, err := treeMergeStratified(partials, root.Split(1<<32))
	if err != nil {
		return nil, stats, err
	}
	stats.Merge = time.Since(mergeStart)
	return merged, stats, nil
}

// mergeStratifiedFn is the pairwise merge used by treeMergeStratified.
// It is a variable only as a test seam: the panic-isolation suite swaps
// in a panicking merge to prove the recover path converts it to an error
// (the real merge's panics are all unreachable-invariant checks).
var mergeStratifiedFn = sample.MergeStratified

// treeMergeStratified folds per-worker partial samples pairwise in
// parallel (log-depth), the exchange-collection step of the paper's §6.3:
// reservoirs carry their full state, so partials merge independently.
func treeMergeStratified(partials []*sample.Stratified, gen *rng.Lehmer64) (*sample.Stratified, error) {
	round := uint64(0)
	for len(partials) > 1 {
		half := (len(partials) + 1) / 2
		next := make([]*sample.Stratified, half)
		errs := make([]error, half)
		var wg sync.WaitGroup
		for i := 0; i < half; i++ {
			j := i + half
			if j >= len(partials) {
				next[i] = partials[i]
				continue
			}
			wg.Add(1)
			go func(i, j int, g *rng.Lehmer64) {
				defer wg.Done()
				// Panic isolation for the exchange step: a poisoned
				// partial fails this query's merge, not the process.
				// Worker-slot write: each goroutine owns errs[i].
				defer func() {
					if r := recover(); r != nil {
						errs[i] = panicError("sample merge", r)
					}
				}()
				next[i], errs[i] = mergeStratifiedFn(partials[i], partials[j], g)
			}(i, j, gen.Split(round<<32|uint64(i)))
		}
		wg.Wait()
		if err := firstError(errs); err != nil {
			return nil, err
		}
		partials = next
		round++
	}
	if len(partials) == 0 {
		return nil, fmt.Errorf("engine: no partial samples to merge")
	}
	return partials[0], nil
}

// reservoirSink feeds gathered rows into a per-worker simple reservoir.
type reservoirSink struct {
	res *sample.Reservoir
}

// consume hands the gathered columns to the reservoir's batch admission:
// once saturated, Algorithm L jumps straight to the next admitted row (no
// per-row RNG draw) and only admitted tuples are copied.
//
//laqy:hot batch sink on the scan path
func (s *reservoirSink) consume(cols [][]int64, n int) {
	s.res.ConsiderColumns(cols, n)
}

// RunReservoir executes q and builds a simple (unstratified) reservoir
// sample of capacity k capturing the listed columns — the paper's
// "reservoir aggregation function used with a reduction" (§6.2).
func RunReservoir(q *Query, cols []string, k int, seed uint64, workers int) (*sample.Reservoir, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	root := rng.NewLehmer64(seed)
	sinks := make([]rowSink, workers)
	partials := make([]*sample.Reservoir, workers)
	for w := 0; w < workers; w++ {
		partials[w] = sample.NewReservoir(k, len(cols), root.Split(uint64(w)))
		sinks[w] = &reservoirSink{res: partials[w]}
	}
	stats, err := runPipeline(q, Cols(cols), workers, sinks)
	if err != nil {
		return nil, stats, err
	}
	mergeStart := time.Now()
	merged := partials[0]
	mergeGen := root.Split(1 << 33)
	for w := 1; w < workers; w++ {
		merged = sample.Merge(merged, partials[w], mergeGen.Split(uint64(w)))
	}
	stats.Merge = time.Since(mergeStart)
	return merged, stats, nil
}

// RunGroupBy executes q as an exact group-by aggregation on aggCol grouped
// by groupCols — the optimized exact baseline sharing stratified sampling's
// access pattern (Figure 8).
func RunGroupBy(q *Query, groupCols []string, aggCol string, workers int) (*GroupResult, Stats, error) {
	return RunGroupByMulti(q, groupCols, []string{aggCol}, workers)
}

// RunGroupByMulti is RunGroupBy over several value columns at once, each
// aggregated independently (read results with ValueAt).
func RunGroupByMulti(q *Query, groupCols, aggCols []string, workers int) (*GroupResult, Stats, error) {
	return RunGroupByExprs(q, groupCols, Cols(aggCols), workers)
}

// RunGroupByExprs is RunGroupByMulti with computed aggregate expressions.
func RunGroupByExprs(q *Query, groupCols []string, aggExprs []ColumnExpr, workers int) (*GroupResult, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if len(groupCols) > sample.MaxQCS {
		return nil, Stats{}, fmt.Errorf("engine: %d group columns (max %d)", len(groupCols), sample.MaxQCS)
	}
	if len(aggExprs) == 0 {
		return nil, Stats{}, fmt.Errorf("engine: no aggregate columns")
	}
	needed := append(Cols(groupCols), aggExprs...)
	sinks := make([]rowSink, workers)
	partials := make([]*groupBySink, workers)
	for w := 0; w < workers; w++ {
		partials[w] = newGroupBySink(len(groupCols), len(aggExprs), q.Budget)
		sinks[w] = partials[w]
	}
	stats, err := runPipeline(q, needed, workers, sinks)
	if err != nil {
		return nil, stats, err
	}
	mergeStart := time.Now()
	result := mergeGroupBySinks(partials)
	stats.Merge = time.Since(mergeStart)
	return result, stats, nil
}

// scanSink folds the selected rows of one column into a running sum: the
// cheapest possible consumer, making RunScan a pure scan-at-memory-
// bandwidth baseline (the "scan" series of Figures 14 and 15).
type scanSink struct {
	sum float64
}

// consume folds the selected column values into the running sum.
//
//laqy:hot per-row sink on the scan path
func (s *scanSink) consume(cols [][]int64, n int) {
	acc := int64(0)
	col := cols[0]
	for i := 0; i < n; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		acc += col[i]
	}
	s.sum += float64(acc)
}

// RunScan executes q computing only SUM(col) over the qualifying rows —
// the exact-scan floor that approximation methods try to dip below.
func RunScan(q *Query, col string, workers int) (float64, Stats, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	sinks := make([]rowSink, workers)
	partials := make([]*scanSink, workers)
	for w := 0; w < workers; w++ {
		partials[w] = &scanSink{}
		sinks[w] = partials[w]
	}
	stats, err := runPipeline(q, Cols([]string{col}), workers, sinks)
	if err != nil {
		return 0, stats, err
	}
	total := 0.0
	for _, p := range partials {
		total += p.sum
	}
	return total, stats, nil
}
