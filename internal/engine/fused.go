package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"laqy/internal/expr"
	"laqy/internal/storage"
)

// AggResult is one expression's fused aggregate: the exact SUM over the
// qualifying rows and the qualifying-row COUNT (shared by all expressions
// of a run; AVG is Sum/Count). Sum accumulates exactly like the
// materializing sinks — a per-morsel int64 partial converted to float64 —
// so single-worker fused answers are bitwise identical to RunScan.
type AggResult struct {
	Sum   float64
	Count int64
}

// fusedExpr is one aggregate expression resolved for the fused path.
type fusedExpr struct {
	left  []int64
	right []int64 // nil when op == 0 or the right operand is a literal
	lit   int64
	op    byte
}

// fusedSegment is the per-sealed-segment compilation for the fused path:
// the filter bound to the segment's encodings (nil = plain kernels) and
// each expression's encoded left operand (nil entries = plain vector).
type fusedSegment struct {
	start, end int
	ef         *expr.EncodedFilter
	cols       []*storage.EncodedCol
}

// fusedSegments compiles the scan's sealed segments for fused execution.
// Returns nil when encoding is disabled or nothing is encoded.
func fusedSegments(q *Query, exprs []ColumnExpr, filter *expr.Filter) []fusedSegment {
	if q.DisableEncoding {
		return nil
	}
	from, to := q.scanBounds()
	var out []fusedSegment
	for _, seg := range q.Fact.Segments() {
		if seg.End() <= from || seg.Start() >= to {
			continue
		}
		enc := seg.Encoding()
		if enc == nil || enc.NumEncoded() == 0 {
			continue
		}
		fs := fusedSegment{start: seg.Start(), end: seg.End(), ef: filter.BindEncoded(enc, seg.Start())}
		any := fs.ef != nil
		for _, ce := range exprs {
			var ec *storage.EncodedCol
			// Two-column expressions still need per-row access to the right
			// operand, so run arithmetic cannot fold them.
			if ce.Op == 0 || ce.RightIsLit {
				ec = enc.Col(ce.Left)
			}
			fs.cols = append(fs.cols, ec)
			any = any || ec != nil
		}
		if any {
			out = append(out, fs)
		}
	}
	return out
}

// find returns the compiled segment fully containing [start, end), or nil.
//
//laqy:hot per-morsel fused-segment lookup
func findFusedSegment(segs []fusedSegment, start, end int) *fusedSegment {
	for i := range segs { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		if start >= segs[i].start && end <= segs[i].end {
			return &segs[i]
		}
	}
	return nil
}

// RunAggregate executes q computing exact SUM and COUNT for each expression
// over the qualifying rows in one fused scan — aggregation folded into the
// scan itself:
//
//   - pruned-full morsels and (when every filter conjunct decomposes over
//     RLE/const encodings) all-pass runs fold straight into the partial
//     accumulators via run_value×run_length arithmetic — no selection
//     vector at all;
//   - remaining morsels select (encoded or plain kernels) and accumulate by
//     direct index into the operand vectors — no gather materialization.
//
// Queries with joins are not fused (the probe needs materialized
// selections); callers route those through RunGroupByExprs. This is the
// exact path's replacement for materialize-then-aggregate
// (BenchmarkFusedAggregate measures the gap).
func RunAggregate(q *Query, exprs []ColumnExpr, workers int) ([]AggResult, Stats, error) {
	if len(q.Joins) > 0 {
		return nil, Stats{}, fmt.Errorf("engine: fused aggregation does not support joins")
	}
	if len(exprs) == 0 {
		return nil, Stats{}, fmt.Errorf("engine: no aggregate expressions")
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	sources, err := q.resolveExprs(exprs)
	if err != nil {
		return nil, Stats{}, err
	}
	fes := make([]fusedExpr, len(sources))
	for i, s := range sources {
		fes[i] = fusedExpr{left: s.left.vec, op: s.op, lit: s.lit}
		if s.op != 0 && !s.isLit {
			fes[i].right = s.right.vec
		}
	}
	filter, err := expr.Compile(q.Filter, q.resolveFact)
	if err != nil {
		return nil, Stats{}, err
	}

	scanFrom, scanTo := q.scanBounds()
	morsels := storage.MorselsRange(scanFrom, scanTo, 0)
	if workers > len(morsels) {
		workers = len(morsels)
	}
	pruner := newMorselPruner(q.Fact, filter, q.DisableZoneMaps, scanFrom, scanTo)
	segs := fusedSegments(q, exprs, filter)

	var next atomic.Int64
	var scanNanos, selected atomic.Int64
	var prunedMorsels, fullMorsels, encodedMorsels, fusedMorsels atomic.Int64
	var canceled atomic.Bool
	start := time.Now()

	sums := make([][]float64, workers)
	counts := make([]int64, workers)
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		sums[w] = make([]float64, len(fes))
		go func(w int) {
			defer wg.Done()
			// Panic isolation, as in runPipeline: a poisoned chunk fails
			// this query, not the process. Worker-slot write: each
			// goroutine owns workerErrs[w].
			defer func() {
				if r := recover(); r != nil {
					workerErrs[w] = panicError("fused aggregate worker", r)
				}
			}()
			sc := leaseMorselScratch(0, 0)
			sel := sc.sel
			defer func() {
				sc.sel = sel
				morselScratchPool.Put(sc) //laqy:allow hotalloc pointer into interface, once per worker retirement (not per morsel)
			}()
			mySums := sums[w]
			acc := make([]int64, len(fes)) //laqy:allow hotalloc once per worker prologue, not per morsel
			var localScan, localSelected int64
			var localPruned, localFull, localEncoded, localFused int64
			for {
				m := int(next.Add(1)) - 1
				if m >= len(morsels) {
					break
				}
				if q.Ctx != nil && q.Ctx.Err() != nil {
					canceled.Store(true)
					break
				}
				mo := morsels[m]

				t0 := time.Now()
				class := pruneNone
				if pruner != nil {
					class = pruner.classify(mo.Start, mo.End)
				}
				if class == pruneSkip {
					localPruned++
					localScan += time.Since(t0).Nanoseconds()
					continue
				}
				fs := findFusedSegment(segs, mo.Start, mo.End)
				for e := range acc {
					acc[e] = 0
				}
				n := 0
				fused := false
				if class == pruneFull {
					// Zone map proved every row matches: fold the whole
					// morsel, preferring encoded run arithmetic.
					localFull++
					n = mo.Len()
					fused = true
					for e := range fes {
						acc[e] = sumExprRange(&fes[e], fs, e, mo.Start, mo.End)
					}
				} else if fs != nil && fs.ef != nil {
					localEncoded++
					// All-pass-run fold: when every conjunct decomposes
					// over RLE/const runs here, passing runs fold with no
					// selection vector.
					fused = fs.ef.PassRuns(mo.Start, mo.End, func(lo, hi int) {
						n += hi - lo
						for e := range fes {
							acc[e] += sumExprRange(&fes[e], fs, e, lo, hi)
						}
					})
					if !fused {
						sel = fs.ef.SelectInto(mo.Start, mo.End, sel[:0])
						n = len(sel)
						for e := range fes {
							acc[e] = sumExprSel(&fes[e], sel)
						}
					}
				} else {
					sel = filter.SelectInto(mo.Start, mo.End, sel[:0])
					n = len(sel)
					for e := range fes {
						acc[e] = sumExprSel(&fes[e], sel)
					}
				}
				if fused {
					localFused++
				}
				// One int64→float64 conversion per morsel per expression —
				// the same rounding structure as scanSink.consume, which is
				// what keeps fused answers bitwise identical to the
				// materializing reference at workers=1.
				for e := range fes {
					mySums[e] += float64(acc[e])
				}
				counts[w] += int64(n)
				localSelected += int64(n)
				localScan += time.Since(t0).Nanoseconds()
			}
			scanNanos.Add(localScan)
			selected.Add(localSelected)
			prunedMorsels.Add(localPruned)
			fullMorsels.Add(localFull)
			encodedMorsels.Add(localEncoded)
			fusedMorsels.Add(localFused)
		}(w)
	}
	wg.Wait()
	if err := firstError(workerErrs); err != nil {
		return nil, Stats{}, err
	}
	if canceled.Load() {
		return nil, Stats{}, q.Ctx.Err()
	}

	out := make([]AggResult, len(fes))
	for w := 0; w < workers; w++ {
		for e := range out {
			out[e].Sum += sums[w][e]
		}
		out[0].Count += counts[w]
	}
	// All expressions share the selection, so every Count is the same.
	for e := 1; e < len(out); e++ {
		out[e].Count = out[0].Count
	}

	divisor := int64(workers)
	if divisor == 0 {
		divisor = 1
	}
	end := time.Now()
	stats := Stats{
		Scan:           time.Duration(scanNanos.Load() / divisor),
		Wall:           end.Sub(start),
		RowsScanned:    int64(scanTo - scanFrom),
		RowsSelected:   selected.Load(),
		Workers:        workers,
		MorselsPruned:  prunedMorsels.Load(),
		MorselsFull:    fullMorsels.Load(),
		MorselsEncoded: encodedMorsels.Load(),
		MorselsFused:   fusedMorsels.Load(),
	}
	finishPipeline(q, &stats, len(morsels), start, end)
	return out, stats, nil
}

// sumExprRange folds the expression over every row of [start, end). When
// the left operand is encoded in the morsel's segment, the sum comes from
// run_value×run_length arithmetic (storage.SumRange);
// literal operands fold algebraically (sum(a*c) = c·sum(a),
// sum(a±c) = sum(a) ± c·n). The wrapping int64 arithmetic is identical to
// the per-row plain loops.
//
//laqy:hot fused full-range aggregate fold
func sumExprRange(fe *fusedExpr, fs *fusedSegment, e, start, end int) int64 {
	n := int64(end - start)
	if fe.right != nil {
		left, right := fe.left, fe.right
		var s int64
		switch fe.op {
		case '*':
			for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[i] * right[i]
			}
		case '+':
			for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[i] + right[i]
			}
		default:
			for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[i] - right[i]
			}
		}
		return s
	}
	var s int64
	if fs != nil && fs.cols[e] != nil {
		s = fs.cols[e].SumRange(start-fs.start, end-fs.start)
	} else {
		left := fe.left
		for i := start; i < end; i++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			s += left[i]
		}
	}
	switch fe.op {
	case '*':
		return s * fe.lit
	case '+':
		return s + fe.lit*n
	case '-':
		return s - fe.lit*n
	default:
		return s
	}
}

// sumExprSel folds the expression over the selected rows by direct index —
// no gather buffer is materialized.
//
//laqy:hot fused selective aggregate fold
func sumExprSel(fe *fusedExpr, sel []int32) int64 {
	left := fe.left
	var s int64
	if fe.right != nil {
		right := fe.right
		switch fe.op {
		case '*':
			for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[idx] * right[idx]
			}
		case '+':
			for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[idx] + right[idx]
			}
		default:
			for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
				s += left[idx] - right[idx]
			}
		}
		return s
	}
	for _, idx := range sel { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		s += left[idx]
	}
	n := int64(len(sel))
	switch fe.op {
	case '*':
		return s * fe.lit
	case '+':
		return s + fe.lit*n
	case '-':
		return s - fe.lit*n
	default:
		return s
	}
}
