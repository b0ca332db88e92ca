// Selection kernels over encoded columns (storage/encode.go): the filter's
// conjuncts evaluate directly against a sealed segment's const, RLE or
// narrow representations — no plain vector is read:
//
//   - EncConst:  one value test decides the whole range (all or none);
//   - EncRLE:    one value test per run, then a compare-free FillRange for
//     passing runs (producer) or a monotonic merge-walk against the runs
//     (refiner) — run-granular skip/take composing with the zone map's
//     morsel-granular skip/full/none;
//   - EncNarrow: the plain kernels' branchless per-row compare over 8- or
//     16-bit offsets, with the interval rewritten into the offset domain
//     (lo <= Ref+u <= hi  ⇔  u-shift <= span in uint64 wraparound
//     arithmetic, exact for all int64 bounds) — an eighth or a quarter of
//     the plain path's memory traffic, with no unpacking.
//
// Conjuncts over columns that stayed plain in the segment take the
// branchless plain kernels. Dictionary-encoded string columns need nothing
// special here: their codes are order-preserving integers, so a string
// range predicate is already an integer interval test and composes with
// every encoding.
package expr

import (
	"laqy/internal/storage"
)

// EncodedFilter is a Filter bound to one sealed segment's encodings: each
// conjunct resolves to the segment's EncodedCol or stays on its plain
// vector. Built once per (query, segment) in the scan prologue; SelectInto
// is then allocation-free per morsel. Immutable and safe for concurrent
// workers.
type EncodedFilter struct {
	f    *Filter
	cols []*storage.EncodedCol // aligned with f.cols; nil = use the plain vector
	base int                   // absolute row of the segment's first row
}

// BindEncoded binds the filter to one segment's encodings. segBase is the
// absolute row index of the segment's first row (EncodedCols are
// segment-relative). Returns nil when no conjunct has an encoding there —
// the caller keeps the plain path, paying zero per-morsel overhead.
func (f *Filter) BindEncoded(enc *storage.SegmentEncoding, segBase int) *EncodedFilter {
	if f.Trivial() || enc == nil || enc.NumEncoded() == 0 {
		return nil
	}
	ef := &EncodedFilter{f: f, base: segBase, cols: make([]*storage.EncodedCol, len(f.cols))}
	bound := 0
	for i := range f.cols {
		if ec := enc.Col(f.cols[i].name); ec != nil {
			ef.cols[i] = ec
			bound++
		}
	}
	if bound == 0 {
		return nil
	}
	return ef
}

// SelectInto appends the qualifying row indices of [start, end) to sel,
// exactly like Filter.SelectInto but evaluating encoded conjuncts over
// their encoded representation. The range must lie inside the bound
// segment. Answers are bit-identical to the plain path (the equivalence
// suite pins this).
//
//laqy:hot per-chunk encoded filter evaluation
func (ef *EncodedFilter) SelectInto(start, end int, sel []int32) []int32 {
	if end <= start {
		return sel
	}
	f := ef.f
	base := len(sel)
	sel = growSel(sel, end-start)
	if ec := ef.cols[0]; ec != nil {
		sel = produceEncoded(&f.cols[0], ec, ef.base, start, end, sel)
	} else {
		sel = producePlain(&f.cols[0], start, end, sel)
	}
	for ci := 1; ci < len(f.cols); ci++ {
		live := sel[base:]
		var n int
		if ec := ef.cols[ci]; ec != nil {
			n = refineEncoded(&f.cols[ci], ec, ef.base, live)
		} else {
			n = refinePlain(&f.cols[ci], live)
		}
		sel = sel[:base+n]
	}
	return sel
}

// ccContains reports whether the conjunct accepts value v — the
// run-granularity test shared by the const and RLE kernels.
func ccContains(cc *compiledCol, v int64) bool {
	if cc.single {
		return uint64(v-cc.lo) <= uint64(cc.hi-cc.lo)
	}
	return cc.set.Contains(v)
}

// produceEncoded appends the rows of [start, end) accepted by cc to sel,
// reading the encoded column. Capacity for end-start rows is pre-grown by
// the caller.
func produceEncoded(cc *compiledCol, ec *storage.EncodedCol, segBase, start, end int, sel []int32) []int32 {
	switch {
	case ec.Kind == storage.EncConst:
		if ccContains(cc, ec.Value) {
			return FillRange(sel, start, end)
		}
		return sel
	case ec.Narrow8 != nil:
		return produceNarrow(cc, ec.Narrow8[start-segBase:end-segBase], ec.Ref, start, sel)
	case ec.Narrow16 != nil:
		return produceNarrow(cc, ec.Narrow16[start-segBase:end-segBase], ec.Ref, start, sel)
	}
	return produceRLE(cc, ec, segBase, start, end, sel)
}

// produceRLE is the run-granular producer: one predicate test per run, then
// a compare-free fill of each passing run's row range.
//
//laqy:hot run-granular RLE selection producer
func produceRLE(cc *compiledCol, ec *storage.EncodedCol, segBase, start, end int, sel []int32) []int32 {
	ri := ec.RunContaining(start - segBase)
	for lo := start; lo < end; ri++ { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		hi := segBase + ec.RunEnd(ri)
		if hi > end {
			hi = end
		}
		if ccContains(cc, ec.Values[ri]) {
			sel = FillRange(sel, lo, hi)
		}
		lo = hi
	}
	return sel
}

// produceNarrow is the branchless narrow producer: offs holds the offsets
// of rows [start, start+len(offs)). A single interval costs one widening
// load and one unsigned compare per row; multi-interval constraints decode
// and fall back to Set.Contains.
//
//laqy:hot branchless narrow-offset selection producer
func produceNarrow[T uint8 | uint16](cc *compiledCol, offs []T, ref int64, start int, sel []int32) []int32 {
	if cc.single {
		n := len(sel)
		buf := sel[:n+len(offs)]
		// u passes iff Ref+u lies in [lo, hi]; in uint64 wraparound
		// arithmetic that is u-shift <= span.
		shift := uint64(cc.lo) - uint64(ref)
		span := uint64(cc.hi - cc.lo)
		for i, u := range offs { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			buf[n] = int32(start + i)
			n += b2i(uint64(u)-shift <= span)
		}
		return buf[:n]
	}
	for i, u := range offs { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		if cc.set.Contains(ref + int64(u)) {
			sel = append(sel, int32(start+i))
		}
	}
	return sel
}

// refineEncoded compacts live in place to the rows accepted by cc, reading
// the encoded column, and returns the surviving count.
func refineEncoded(cc *compiledCol, ec *storage.EncodedCol, segBase int, live []int32) int {
	switch {
	case ec.Kind == storage.EncConst:
		if ccContains(cc, ec.Value) {
			return len(live)
		}
		return 0
	case ec.Narrow8 != nil:
		return refineNarrow(cc, ec.Narrow8, ec.Ref, segBase, live)
	case ec.Narrow16 != nil:
		return refineNarrow(cc, ec.Narrow16, ec.Ref, segBase, live)
	}
	return refineRLE(cc, ec, segBase, live)
}

// refineNarrow is the branchless narrow refiner (see produceNarrow for the
// offset-domain rewrite); offs holds the whole segment's offsets.
//
//laqy:hot branchless narrow-offset selection refiner
func refineNarrow[T uint8 | uint16](cc *compiledCol, offs []T, ref int64, segBase int, live []int32) int {
	n := 0
	if cc.single {
		shift := uint64(cc.lo) - uint64(ref)
		span := uint64(cc.hi - cc.lo)
		for _, idx := range live { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
			live[n] = idx
			n += b2i(uint64(offs[int(idx)-segBase])-shift <= span)
		}
		return n
	}
	for _, idx := range live { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		live[n] = idx
		n += b2i(cc.set.Contains(ref + int64(offs[int(idx)-segBase])))
	}
	return n
}

// refineRLE merge-walks the ascending selection against the runs: the run
// cursor only ever advances, so the cost is O(len(live) + runs touched)
// with one predicate test per run — no per-row value load at all.
//
//laqy:hot RLE merge-walk selection refiner
func refineRLE(cc *compiledCol, ec *storage.EncodedCol, segBase int, live []int32) int {
	if len(live) == 0 {
		return 0
	}
	ri := ec.RunContaining(int(live[0]) - segBase)
	rEnd := int32(segBase + ec.RunEnd(ri))
	match := ccContains(cc, ec.Values[ri])
	n := 0
	for _, idx := range live { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		for idx >= rEnd {
			ri++
			rEnd = int32(segBase + ec.RunEnd(ri))
			match = ccContains(cc, ec.Values[ri])
		}
		live[n] = idx
		n += b2i(match)
	}
	return n
}

// PassRuns decomposes the filter's verdict over [start, end) into
// run-granular all-pass ranges: fn is invoked for each maximal row range in
// which every row provably passes every conjunct. It reports ok=false —
// without calling fn — when the filter does not decompose at run
// granularity over this segment (any conjunct is plain or narrow there).
// The engine's fused aggregate path folds the reported ranges straight
// into run_value×run_length arithmetic with no selection vector.
func (ef *EncodedFilter) PassRuns(start, end int, fn func(lo, hi int)) bool {
	f := ef.f
	for _, ec := range ef.cols {
		if ec == nil || ec.Kind == storage.EncNarrow {
			return false
		}
	}
	lo := start
	for lo < end {
		hi := end
		pass := true
		for ci := range f.cols {
			ec := ef.cols[ci]
			if ec.Kind == storage.EncConst {
				pass = pass && ccContains(&f.cols[ci], ec.Value)
				continue
			}
			ri := ec.RunContaining(lo - ef.base)
			if runEnd := ef.base + ec.RunEnd(ri); runEnd < hi {
				hi = runEnd
			}
			pass = pass && ccContains(&f.cols[ci], ec.Values[ri])
		}
		if pass {
			fn(lo, hi)
		}
		lo = hi
	}
	return true
}
