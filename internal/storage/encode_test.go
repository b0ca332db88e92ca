package storage

//laqy:allow rngsource randomized equivalence inputs; determinism comes from fixed seeds, not laqy/internal/rng

import (
	"math"
	"math/rand"
	"testing"
)

// decodeAll materializes an encoded column for comparisons.
func decodeAll(e *EncodedCol) []int64 {
	return e.DecodeInto(make([]int64, e.Rows), 0, e.Rows)
}

func TestEncodeColumnConst(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = -42
	}
	ec := EncodeColumn("c", vals)
	if ec == nil || ec.Kind != EncConst {
		t.Fatalf("kind = %v, want const", ec)
	}
	if ec.Value != -42 || ec.Rows != 1000 || ec.PhysBytes != 16 {
		t.Fatalf("const col = %+v", ec)
	}
	for i, v := range decodeAll(ec) {
		if v != -42 {
			t.Fatalf("row %d = %d", i, v)
		}
	}
}

func TestEncodeColumnRLE(t *testing.T) {
	// Sorted with long runs and a huge value span — mirrors a date-clustered
	// fact column.
	var vals []int64
	for r := 0; r < 8; r++ {
		v := int64(r) * (math.MaxInt64 / 8)
		for j := 0; j < 500; j++ {
			vals = append(vals, v)
		}
	}
	ec := EncodeColumn("c", vals)
	if ec == nil || ec.Kind != EncRLE {
		t.Fatalf("kind = %v, want rle", ec)
	}
	if ec.NumRuns() != 8 {
		t.Fatalf("runs = %d, want 8", ec.NumRuns())
	}
	for i, v := range decodeAll(ec) {
		if v != vals[i] {
			t.Fatalf("row %d = %d, want %d", i, v, vals[i])
		}
	}
	// Run lookup edges: first/last row of each run.
	for ri := 0; ri < ec.NumRuns(); ri++ {
		if got := ec.RunContaining(int(ec.Starts[ri])); got != ri {
			t.Fatalf("RunContaining(start of %d) = %d", ri, got)
		}
		if got := ec.RunContaining(ec.RunEnd(ri) - 1); got != ri {
			t.Fatalf("RunContaining(end of %d) = %d", ri, got)
		}
	}
}

func TestEncodeColumnNarrowShuffled(t *testing.T) {
	// The shuffled narrow-domain columns of SSB lineorder have runs ≈ rows,
	// so RLE loses; they take byte-aligned offsets from their minimum — one
	// byte per row for lo_discount and lo_quantity, two for lo_orderdate's
	// yyyymmdd span. One value more than 16 bits spans stays plain.
	rnd := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name   string
		lo, hi int64
		bytes  int64 // per row; 0 = plain
	}{
		{"lo_discount", 0, 10, 1},
		{"lo_quantity", 1, 50, 1},
		{"byte_edge", -128, 127, 1},
		{"lo_orderdate", 19920101, 19981230, 2},
		{"short_edge", math.MaxInt64 - 65535, math.MaxInt64, 2},
		{"seventeen_bits", -1 << 15, 1 << 15, 0},
	} {
		vals := make([]int64, DefaultMorselSize)
		for i := range vals {
			vals[i] = c.lo + rnd.Int63n(c.hi-c.lo+1)
		}
		vals[0], vals[1] = c.lo, c.hi // pin the full span
		ec := EncodeColumn(c.name, vals)
		if c.bytes == 0 {
			if ec != nil {
				t.Fatalf("%s encoded as %v (%d bytes), want plain", c.name, ec.Kind, ec.PhysBytes)
			}
			continue
		}
		if ec == nil || ec.Kind != EncNarrow || ec.Ref != c.lo || ec.PhysBytes != c.bytes*int64(len(vals)) {
			t.Fatalf("%s: enc = %v, want narrow from %d at %d B/row", c.name, ec, c.lo, c.bytes)
		}
		if (c.bytes == 1) != (ec.Narrow8 != nil) || (c.bytes == 2) != (ec.Narrow16 != nil) {
			t.Fatalf("%s: offsets 8-bit=%v 16-bit=%v, want %d B/row", c.name, ec.Narrow8 != nil, ec.Narrow16 != nil, c.bytes)
		}
		for i, v := range decodeAll(ec) {
			if v != vals[i] || ec.At(i) != vals[i] {
				t.Fatalf("%s: row %d = %d / At %d, want %d", c.name, i, v, ec.At(i), vals[i])
			}
		}
	}
}

func TestEncodeColumnPrefersRLEOverNarrow(t *testing.T) {
	// A narrow domain in runs of 16 rows: RLE costs 0.75 B/row, under the
	// 1 B/row of 8-bit offsets, and keeps its run-granular kernels.
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i / 16 % 40)
	}
	if ec := EncodeColumn("c", vals); ec == nil || ec.Kind != EncRLE {
		t.Fatalf("enc = %v, want rle", ec)
	}
}

func TestEncodeColumnRLEExtremeValues(t *testing.T) {
	// Runs holding negative values, zero crossings and the int64 extremes
	// decode exactly.
	vals := []int64{math.MinInt64, -5, 0, 3, math.MaxInt64}
	var col []int64
	for _, v := range vals {
		for j := 0; j < 64; j++ {
			col = append(col, v)
		}
	}
	ec := EncodeColumn("c", col)
	if ec == nil || ec.Kind != EncRLE || ec.NumRuns() != len(vals) {
		t.Fatalf("enc = %+v", ec)
	}
	for i, v := range decodeAll(ec) {
		if v != col[i] {
			t.Fatalf("row %d = %d, want %d", i, v, col[i])
		}
	}
}

func TestEncodeColumnDeclines(t *testing.T) {
	// Shuffled full-width values: no representation clears the 3/4 shrink
	// threshold, so the column stays plain.
	rnd := rand.New(rand.NewSource(2))
	vals := make([]int64, 2048)
	for i := range vals {
		vals[i] = int64(rnd.Uint64())
	}
	if ec := EncodeColumn("c", vals); ec != nil {
		t.Fatalf("wide random column encoded as %v (%d bytes)", ec.Kind, ec.PhysBytes)
	}
	if ec := EncodeColumn("empty", nil); ec != nil {
		t.Fatal("empty column must not encode")
	}
}

func TestSumRangeMatchesNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	cases := map[string][]int64{}
	// Const, RLE, 8- and 16-bit narrow, and RLE and narrow cases with values
	// that overflow int64 sums (wrapping semantics must match the plain int64
	// accumulation).
	constCol := make([]int64, 777)
	for i := range constCol {
		constCol[i] = 9
	}
	cases["const"] = constCol
	var rle []int64
	for r := 0; r < 40; r++ {
		v := rnd.Int63n(1000) - 500
		for j := 0; j < 1+rnd.Intn(60); j++ {
			rle = append(rle, v)
		}
	}
	cases["rle"] = rle
	var big []int64
	for r := 0; r < 32; r++ {
		v := math.MaxInt64 - rnd.Int63n(128)
		for j := 0; j < 32; j++ {
			big = append(big, v)
		}
	}
	cases["wrap"] = big
	narrow8 := make([]int64, 1500)
	narrow16 := make([]int64, 1500)
	narrowWrap := make([]int64, 1500)
	for i := range narrow8 {
		narrow8[i] = -300 + rnd.Int63n(250)
		narrow16[i] = -30_000 + rnd.Int63n(60_001)
		narrowWrap[i] = math.MaxInt64 - rnd.Int63n(200)
	}
	cases["narrow8"], cases["narrow16"], cases["narrow-wrap"] = narrow8, narrow16, narrowWrap

	for name, vals := range cases {
		ec := EncodeColumn(name, vals)
		if ec == nil {
			t.Fatalf("%s: expected an encoding", name)
		}
		for trial := 0; trial < 200; trial++ {
			from := rnd.Intn(len(vals))
			to := from + rnd.Intn(len(vals)-from+1)
			var want int64
			for _, v := range vals[from:to] {
				want += v // wraps, same as the kernels
			}
			if got := ec.SumRange(from, to); got != want {
				t.Fatalf("%s (%v): SumRange(%d,%d) = %d, want %d", name, ec.Kind, from, to, got, want)
			}
		}
		if got := ec.SumRange(5, 5); got != 0 {
			t.Fatalf("%s: empty range sum = %d", name, got)
		}
	}
}

// sealed returns a table with all data rows sealed, laid out in segments of
// segRows.
func sealedTable(t *testing.T, name string, segRows int, cols ...*Column) *Table {
	t.Helper()
	tab, err := NewTable(name, cols...)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = Resegment(tab, segRows)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSealMakesSegmentsEncodable(t *testing.T) {
	vals := make([]int64, 3*DefaultMorselSize)
	for i := range vals {
		vals[i] = int64(i / DefaultMorselSize) // 3 runs, one per segment
	}
	tab := sealedTable(t, "t", DefaultMorselSize, &Column{Name: "x", Kind: KindInt64, Ints: vals})

	segs := tab.Segments()
	if len(segs) != 4 {
		t.Fatalf("segments = %d, want 3 data + 1 open", len(segs))
	}
	open := segs[len(segs)-1]
	if open.Rows() != 0 || open.Sealed() || open.Encoding() != nil {
		t.Fatalf("open segment: rows=%d sealed=%v", open.Rows(), open.Sealed())
	}
	for i := 0; i < 3; i++ {
		enc := segs[i].Encoding()
		if enc == nil {
			t.Fatalf("segment %d: no encoding", i)
		}
		ec := enc.Col("x")
		if ec == nil || ec.Kind != EncConst {
			t.Fatalf("segment %d: col = %+v, want const", i, ec)
		}
	}
	// Sealing an all-sealed table is a no-op (same version back).
	again, err := Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if again != tab {
		t.Fatal("Seal of sealed table must be a no-op")
	}
}

func TestEncodingCarriesAcrossAppend(t *testing.T) {
	vals := make([]int64, 2*DefaultMorselSize)
	for i := range vals {
		vals[i] = int64(i / 1000) // clustered: RLE-encodes
	}
	tab := sealedTable(t, "t", DefaultMorselSize, &Column{Name: "x", Kind: KindInt64, Ints: vals})
	enc0 := tab.Segments()[0].Encoding()
	if enc0 == nil || enc0.Col("x") == nil {
		t.Fatal("no encoding on sealed segment")
	}

	grownVals := append(append([]int64{}, vals...), 1, 2, 3)
	grown, err := AppendColumns(tab, []*Column{{Name: "x", Kind: KindInt64, Ints: grownVals}}, DefaultMorselSize)
	if err != nil {
		t.Fatal(err)
	}
	// The sealed segment's encoding is the same object — not rebuilt.
	if got := grown.Segments()[0].Encoding(); got != enc0 {
		t.Fatalf("append rebuilt the sealed segment's encoding: %p != %p", got, enc0)
	}
	// The appended rows live in an open segment that stays plain.
	segs := grown.Segments()
	if segs[len(segs)-1].Encoding() != nil {
		t.Fatal("open segment encoded after append")
	}
}

func TestEncodedSizes(t *testing.T) {
	vals := make([]int64, DefaultMorselSize)
	for i := range vals {
		vals[i] = 7 // const-encodes: 16 bytes vs 512 KiB plain
	}
	tab := sealedTable(t, "t", DefaultMorselSize, &Column{Name: "x", Kind: KindInt64, Ints: vals})

	// Before any build, the built view counts plain on both ledgers.
	phys, logical := tab.EncodedSizesBuilt()
	wantLogical := int64(DefaultMorselSize) * 8
	if phys != wantLogical || logical != wantLogical {
		t.Fatalf("built sizes before build = (%d, %d), want (%d, %d)", phys, logical, wantLogical, wantLogical)
	}
	// Forcing builds shrinks physical to the const encoding.
	phys, logical = tab.EncodedSizes()
	if logical != wantLogical || phys != 16 {
		t.Fatalf("forced sizes = (%d, %d), want (16, %d)", phys, logical, wantLogical)
	}
	// And the built view now agrees.
	if phys, _ = tab.EncodedSizesBuilt(); phys != 16 {
		t.Fatalf("built sizes after build = %d, want 16", phys)
	}
}
