// Lightweight per-segment column encodings. A sealed segment's columns are
// immutable, so at first encoded scan the segment picks — per column, by a
// byte-cost heuristic — one of three representations the kernels can
// evaluate predicates over:
//
//   - EncConst:  every row holds one value (one int64 for the whole run);
//   - EncRLE:    run-length encoding for sorted/clustered columns (run
//     values + run start offsets, run ends implicit), tested one run at a
//     time;
//   - EncNarrow: byte-aligned offsets from the segment's minimum, one or two
//     bytes per row, for shuffled narrow domains (SSB's lo_discount,
//     lo_quantity, lo_orderdate), tested one row at a time by the same
//     branchless compare as the plain kernels over an eighth or a quarter
//     of the bytes.
//
// The plain []int64 vector remains resident as the source of truth —
// encodings are scan representations held beside it, never the only copy —
// which keeps gathers, joins, and per-row fallbacks O(1) and lets
// EncodeColumn decline columns the heuristic can't shrink. A column whose
// runs are about as many as its rows and whose values span more than 16
// bits stays plain for the plain kernels, which read the resident vector
// directly.
//
// The open (last) segment of a table never encodes: its rows still change,
// and keeping it plain keeps appends O(1). Seal() converts a bulk-loaded
// table to the all-sealed layout so loaded data serves encoded scans
// immediately.
//
// Like zone maps, encodings are built once per sealed segment and the cache
// is carried by pointer across table versions (AppendColumns), so an append
// re-encodes nothing that was already sealed. See docs/PERFORMANCE.md,
// "Encoded storage".
package storage

import (
	"sync"
	"sync/atomic"
)

// EncKind identifies a column's physical representation within one segment.
type EncKind uint8

const (
	// EncPlain: the raw []int64 vector (no EncodedCol is materialized).
	EncPlain EncKind = iota
	// EncConst: a single value repeated for every row of the segment.
	EncConst
	// EncRLE: run-length encoded (Values[i] repeated over
	// [Starts[i], Starts[i+1])).
	EncRLE
	// EncNarrow: row i holds Ref + Narrow8[i] (or Narrow16[i]).
	EncNarrow
)

// String implements fmt.Stringer.
func (k EncKind) String() string {
	switch k {
	case EncPlain:
		return "plain"
	case EncConst:
		return "const"
	case EncRLE:
		return "rle"
	case EncNarrow:
		return "narrow"
	default:
		return "enc(?)"
	}
}

// encMinShrinkNum/Den is the heuristic's gain threshold: an encoding is
// adopted only if its physical bytes are at most 3/4 of the plain vector's.
// Below that margin the cheaper representation doesn't buy enough memory
// traffic to pay for the (slightly) costlier per-row access.
const (
	encMinShrinkNum = 3
	encMinShrinkDen = 4
)

// narrowMaxSpan is the widest value span EncNarrow holds: 16-bit offsets,
// at most a quarter of the plain bytes. A 32-bit form would halve the
// bytes scanned but keep another half-size copy of a wide column resident
// beside its plain vector; SSB lineorder has four such columns.
const narrowMaxSpan = 1<<16 - 1

// EncodedCol is one column of one sealed segment in encoded physical form.
// All row indices are segment-relative (0 = the segment's first row); the
// engine converts absolute morsel rows by subtracting the segment start.
// EncodedCols are immutable and safe for concurrent use.
type EncodedCol struct {
	// Name is the column name.
	Name string
	// Kind is EncConst, EncRLE or EncNarrow (never EncPlain: plain
	// columns simply have no EncodedCol).
	Kind EncKind
	// Rows is the segment's row count.
	Rows int

	// Value is the repeated value for EncConst.
	Value int64

	// Values and Starts are the RLE runs: Values[i] repeats over rows
	// [Starts[i], Starts[i+1]) (the last run ends at Rows).
	Values []int64
	Starts []int32

	// Ref and exactly one of Narrow8/Narrow16 are the EncNarrow offsets:
	// Ref is the segment's minimum, each row stores its value minus Ref.
	Ref      int64
	Narrow8  []uint8
	Narrow16 []uint16

	// PhysBytes is the physical footprint of this representation.
	PhysBytes int64
}

// EncodeColumn encodes vals (one segment's slice of a column) or returns nil
// when no representation beats the plain vector by the shrink threshold.
// The cost model is pure byte counting: const = 16 bytes, RLE = 12 bytes per
// run (value + start), narrow = 1 or 2 bytes per row, plain = 8 bytes per
// row. The cheapest candidate wins; RLE wins ties, since its kernels test
// one value per run.
func EncodeColumn(name string, vals []int64) *EncodedCol {
	rows := len(vals)
	if rows == 0 {
		return nil
	}
	runs := 1
	lo, hi := vals[0], vals[0]
	for i := 1; i < rows; i++ {
		v := vals[i]
		if v != vals[i-1] {
			runs++
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	if runs == 1 {
		return &EncodedCol{Name: name, Kind: EncConst, Rows: rows, Value: vals[0], PhysBytes: 16}
	}
	rleBytes := int64(runs) * 12
	narrowBytes := int64(-1)
	// The span in uint64 arithmetic is exact for any int64 lo <= hi.
	if span := uint64(hi) - uint64(lo); span <= narrowMaxSpan {
		narrowBytes = int64(rows) * 2
		if span <= 1<<8-1 {
			narrowBytes = int64(rows)
		}
	}
	if narrowBytes >= 0 && narrowBytes < rleBytes {
		return encodeNarrow(name, vals, lo, narrowBytes)
	}
	if rleBytes*encMinShrinkDen > int64(rows)*8*encMinShrinkNum {
		return nil
	}
	ec := &EncodedCol{Name: name, Kind: EncRLE, Rows: rows, PhysBytes: rleBytes,
		Values: make([]int64, 0, runs), Starts: make([]int32, 0, runs)}
	for i := 0; i < rows; i++ {
		if i == 0 || vals[i] != vals[i-1] {
			ec.Values = append(ec.Values, vals[i])
			ec.Starts = append(ec.Starts, int32(i))
		}
	}
	return ec
}

// encodeNarrow stores vals as offsets from ref, their minimum, one byte
// per row when physBytes says so and two otherwise.
func encodeNarrow(name string, vals []int64, ref, physBytes int64) *EncodedCol {
	ec := &EncodedCol{Name: name, Kind: EncNarrow, Rows: len(vals), Ref: ref, PhysBytes: physBytes}
	if physBytes == int64(len(vals)) {
		ec.Narrow8 = narrowOffsets[uint8](vals, ref)
	} else {
		ec.Narrow16 = narrowOffsets[uint16](vals, ref)
	}
	return ec
}

func narrowOffsets[T uint8 | uint16](vals []int64, ref int64) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = T(uint64(v) - uint64(ref))
	}
	return out
}

// sumOffsets returns the sum of offs as int64.
func sumOffsets[T uint8 | uint16](offs []T) int64 {
	var s int64
	for _, u := range offs { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		s += int64(u)
	}
	return s
}

// NumRuns returns the run count for EncRLE columns.
func (e *EncodedCol) NumRuns() int { return len(e.Values) }

// RunContaining returns the index of the RLE run containing segment-relative
// row rel (binary search over run starts).
func (e *EncodedCol) RunContaining(rel int) int {
	lo, hi := 0, len(e.Starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(e.Starts[mid]) <= rel {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// RunEnd returns one past the last segment-relative row of RLE run ri.
func (e *EncodedCol) RunEnd(ri int) int {
	if ri+1 < len(e.Starts) {
		return int(e.Starts[ri+1])
	}
	return e.Rows
}

// At decodes segment-relative row i.
func (e *EncodedCol) At(i int) int64 {
	switch {
	case e.Kind == EncConst:
		return e.Value
	case e.Narrow8 != nil:
		return e.Ref + int64(e.Narrow8[i])
	case e.Narrow16 != nil:
		return e.Ref + int64(e.Narrow16[i])
	}
	return e.Values[e.RunContaining(i)]
}

// DecodeInto decodes the segment-relative rows [from, to) into dst, which
// must have to-from capacity. Used by the equivalence and fuzz suites; the
// scan kernels never materialize.
func (e *EncodedCol) DecodeInto(dst []int64, from, to int) []int64 {
	dst = dst[:to-from]
	if e.Kind != EncRLE {
		for i := range dst {
			dst[i] = e.At(from + i)
		}
		return dst
	}
	ri := e.RunContaining(from)
	for i := from; i < to; {
		end := e.RunEnd(ri)
		if end > to {
			end = to
		}
		v := e.Values[ri]
		for ; i < end; i++ {
			dst[i-from] = v
		}
		ri++
	}
	return dst
}

// SumRange returns the exact int64 (wrapping) sum of segment-relative rows
// [from, to) straight from the encoded form: run_value × run_length
// arithmetic, or Ref × rows plus the narrow offsets' sum. This is the
// arithmetic behind the engine's fused aggregate path; the wrapping
// semantics match the plain kernels' int64 accumulation exactly.
//
//laqy:hot fused-aggregate fold over encoded runs
func (e *EncodedCol) SumRange(from, to int) int64 {
	if to <= from {
		return 0
	}
	switch {
	case e.Kind == EncConst:
		return e.Value * int64(to-from)
	case e.Narrow8 != nil:
		return e.Ref*int64(to-from) + sumOffsets(e.Narrow8[from:to])
	case e.Narrow16 != nil:
		return e.Ref*int64(to-from) + sumOffsets(e.Narrow16[from:to])
	}
	ri := e.RunContaining(from)
	var sum int64
	for i := from; i < to; { //laqy:allow ctxpoll leaf kernel; the morsel driver polls per morsel
		end := e.RunEnd(ri)
		if end > to {
			end = to
		}
		sum += e.Values[ri] * int64(end-i)
		i = end
		ri++
	}
	return sum
}

// SegmentEncoding holds one sealed segment's encoded columns: only columns
// the heuristic shrank appear; everything else stays plain. Immutable after
// build.
type SegmentEncoding struct {
	cols map[string]*EncodedCol
	// physical counts every column: encoded bytes where an encoding was
	// adopted, rows×8 where the column stayed plain. logical is rows×cols×8.
	physical, logical int64
}

// Col returns the encoded form of the named column, or nil if it is plain
// in this segment.
func (e *SegmentEncoding) Col(name string) *EncodedCol { return e.cols[name] }

// NumEncoded returns how many columns adopted an encoding.
func (e *SegmentEncoding) NumEncoded() int { return len(e.cols) }

// PhysicalBytes returns the segment's physical byte footprint (encoded
// columns at encoded size, plain columns at rows×8).
func (e *SegmentEncoding) PhysicalBytes() int64 { return e.physical }

// LogicalBytes returns the segment's plain byte footprint (rows×cols×8).
func (e *SegmentEncoding) LogicalBytes() int64 { return e.logical }

// buildSegmentEncoding encodes the rows [start, end) of every column of t.
func buildSegmentEncoding(t *Table, start, end int) *SegmentEncoding {
	enc := &SegmentEncoding{cols: make(map[string]*EncodedCol)}
	rows := int64(end - start)
	for _, c := range t.columns {
		enc.logical += rows * 8
		if ec := EncodeColumn(c.Name, c.Ints[start:end]); ec != nil {
			enc.cols[c.Name] = ec
			enc.physical += ec.PhysBytes
		} else {
			enc.physical += rows * 8
		}
	}
	return enc
}

// encodingCache memoizes one lazily built SegmentEncoding, shared by
// pointer across table versions exactly like zoneMapCache. built allows
// metrics reads (EncodedSizesBuilt) without forcing a build.
type encodingCache struct {
	once  sync.Once
	built atomic.Bool
	enc   *SegmentEncoding
}

// Sealed reports whether the segment is sealed (not the table's open, last
// segment). Only sealed segments encode: their rows are immutable, so the
// encoded form can never go stale.
func (s *Segment) Sealed() bool {
	segs := s.t.Segments()
	return s.id < len(segs)-1
}

// Encoding returns the segment's encoded columns, built on first use and
// cached across table versions (sealed rows are copied verbatim on append,
// so the encodings stay exact). Returns nil for empty segments and for the
// open segment, which stays plain for O(1) appends.
func (s *Segment) Encoding() *SegmentEncoding {
	if s.Rows() == 0 || !s.Sealed() {
		return nil
	}
	s.enc.once.Do(func() {
		s.enc.enc = buildSegmentEncoding(s.t, s.start, s.end)
		s.enc.built.Store(true)
	})
	return s.enc.enc
}

// Seal returns a table version in which every current row belongs to a
// sealed segment: if the last segment is non-empty, a fresh empty open
// segment is appended after it. Sealed segments become eligible for encoded
// scans (Encoding); later appends fill the new open segment. Bulk loaders
// call this after Resegment so loaded data serves encoded scans immediately;
// the empty open segment is invisible to planning (segment sources skip
// empty segments) and to Δ-maintenance (an empty watermark is a no-op).
func Seal(t *Table) (*Table, error) {
	segs := t.Segments()
	if segs[len(segs)-1].Rows() == 0 {
		return t, nil
	}
	nt, err := NewTable(t.Name, t.columns...)
	if err != nil {
		return nil, err
	}
	ns := make([]*Segment, 0, len(segs)+1)
	for _, s := range segs {
		ns = append(ns, &Segment{start: s.start, end: s.end, version: s.version, zone: s.zone, enc: s.enc})
	}
	ns = append(ns, &Segment{start: t.rows, end: t.rows, version: 1})
	nt.setSegments(ns)
	return nt, nil
}

// EncodedSizes returns the table's physical (encoded) and logical byte
// footprints, building any missing sealed-segment encodings — the
// "seal-time" encode for bulk loads, amortized across all later encoded
// scans. The open segment counts at its plain size on both ledgers.
func (t *Table) EncodedSizes() (physical, logical int64) {
	return t.encodedSizes(true)
}

// EncodedSizesBuilt is EncodedSizes without forcing builds: segments whose
// encodings have not been built yet count at plain size. Metrics gauges use
// it so reading /metrics never triggers encoding work.
func (t *Table) EncodedSizesBuilt() (physical, logical int64) {
	return t.encodedSizes(false)
}

func (t *Table) encodedSizes(force bool) (physical, logical int64) {
	nCols := int64(len(t.columns))
	for _, s := range t.Segments() {
		plain := int64(s.Rows()) * nCols * 8
		logical += plain
		var enc *SegmentEncoding
		if force {
			enc = s.Encoding()
		} else if s.enc.built.Load() {
			enc = s.enc.enc
		}
		if enc != nil {
			physical += enc.physical
		} else {
			physical += plain
		}
	}
	return physical, logical
}
