package expr

//laqy:allow rngsource randomized equivalence inputs; determinism comes from fixed seeds, not laqy/internal/rng

import (
	"math"
	"math/rand"
	"testing"

	"laqy/internal/algebra"
	"laqy/internal/storage"
)

// sealedEncoding builds a one-segment sealed table from the given column
// vectors and returns its SegmentEncoding (possibly with zero encoded
// columns if the heuristic declined everything).
func sealedEncoding(t testing.TB, cols map[string][]int64) *storage.SegmentEncoding {
	t.Helper()
	var sc []*storage.Column
	for name, vals := range cols {
		sc = append(sc, &storage.Column{Name: name, Kind: storage.KindInt64, Ints: vals})
	}
	tab, err := storage.NewTable("t", sc...)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = storage.Resegment(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err = storage.Seal(tab)
	if err != nil {
		t.Fatal(err)
	}
	return tab.Segments()[0].Encoding()
}

// selEqual fails unless a and b are identical index sequences.
func selEqual(t *testing.T, ctx string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d selected, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sel[%d] = %d, want %d", ctx, i, got[i], want[i])
		}
	}
}

// TestEncodedSelectEquivalence drives random predicates over columns shaped
// for each encoding (long RLE runs, short RLE runs over a wide span, 8- and
// 16-bit narrow offsets from a negative minimum, const, and an un-encodable
// wide column for the mixed plain-fallback case) and pins the encoded
// SelectInto to the plain kernels' output, index for index.
func TestEncodedSelectEquivalence(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	const rows = 10_000
	cols := map[string][]int64{
		"runs":     make([]int64, rows),
		"short":    make([]int64, rows),
		"narrow":   make([]int64, rows),
		"narrow16": make([]int64, rows),
		"const":    make([]int64, rows),
		"wide":     make([]int64, rows),
	}
	v, sv := int64(0), int64(0)
	for i := 0; i < rows; i++ {
		if rnd.Intn(64) == 0 {
			v += rnd.Int63n(5)
		}
		if rnd.Intn(6) == 0 {
			sv = rnd.Int63n(2_000_000) - 1_000_000
		}
		cols["runs"][i] = v
		cols["short"][i] = sv
		cols["narrow"][i] = rnd.Int63n(200) - 100
		cols["narrow16"][i] = rnd.Int63n(60_000) - 30_000
		cols["const"][i] = 7
		cols["wide"][i] = int64(rnd.Uint64())
	}
	enc := sealedEncoding(t, cols)
	for name, kind := range map[string]storage.EncKind{
		"runs": storage.EncRLE, "short": storage.EncRLE, "narrow": storage.EncNarrow,
		"narrow16": storage.EncNarrow, "const": storage.EncConst,
	} {
		if ec := enc.Col(name); ec == nil || ec.Kind != kind {
			t.Fatalf("%s column: %+v, want %v", name, ec, kind)
		}
	}
	if ec := enc.Col("narrow"); ec.Narrow8 == nil || ec.Ref >= 0 {
		t.Fatalf("narrow column: want 8-bit offsets from a negative Ref, got Ref %d", ec.Ref)
	}
	if ec := enc.Col("narrow16"); ec.Narrow16 == nil {
		t.Fatal("narrow16 column: want 16-bit offsets")
	}
	if enc.Col("wide") != nil {
		t.Fatalf("wide column unexpectedly encoded: %+v", enc.Col("wide"))
	}

	randRange := func(name string) algebra.Predicate {
		vals := cols[name]
		a, b := vals[rnd.Intn(rows)], vals[rnd.Intn(rows)]
		if a > b {
			a, b = b, a
		}
		return algebra.NewPredicate().WithRange(name, a, b)
	}
	preds := []func() algebra.Predicate{
		func() algebra.Predicate { return randRange("runs") },
		func() algebra.Predicate { return randRange("short") },
		func() algebra.Predicate { return randRange("narrow") },
		func() algebra.Predicate { return randRange("narrow16") },
		// Multi-interval over the short-run column (Set.Contains per run)
		// and over the narrow column (Set.Contains per decoded row).
		func() algebra.Predicate {
			return algebra.NewPredicate().With("short", algebra.NewSet(
				algebra.Interval{Lo: -900_000, Hi: -500_000}, algebra.Interval{Lo: 0, Hi: 100_000}))
		},
		func() algebra.Predicate {
			return algebra.NewPredicate().With("narrow", algebra.NewSet(
				algebra.Interval{Lo: -90, Hi: -50}, algebra.Interval{Lo: 0, Hi: 10}))
		},
		// Narrow bounds past the offsets' domain on either side, down to
		// the int64 extremes: the offset-domain rewrite must stay exact.
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("narrow", math.MinInt64, -95) },
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("narrow", 95, math.MaxInt64) },
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("narrow16", -1<<40, 1<<40) },
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("narrow16", 40_000, 1<<40) },
		// Const all-pass and all-fail.
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("const", 0, 100) },
		func() algebra.Predicate { return algebra.NewPredicate().WithRange("const", 8, 100) },
		// Conjunctions mixing encodings, including the plain fallback.
		func() algebra.Predicate { return randRange("runs").WithRange("narrow", -40, 40) },
		func() algebra.Predicate { return randRange("narrow").WithRange("narrow16", -10_000, 20_000) },
		func() algebra.Predicate { return randRange("narrow16").WithRange("short", -1_000_000, 0) },
		func() algebra.Predicate { return randRange("narrow").WithRange("runs", 3, 1<<40) },
		func() algebra.Predicate { return randRange("runs").WithRange("wide", math.MinInt64, 0) },
		func() algebra.Predicate {
			return randRange("narrow").WithRange("const", 7, 7).WithRange("runs", 0, 1<<40)
		},
	}
	resolve := func(name string) []int64 { return cols[name] }
	for pi, mk := range preds {
		for trial := 0; trial < 50; trial++ {
			f, err := Compile(mk(), resolve)
			if err != nil {
				t.Fatal(err)
			}
			ef := f.BindEncoded(enc, 0)
			if ef == nil {
				t.Fatalf("pred %d: BindEncoded returned nil", pi)
			}
			start := rnd.Intn(rows)
			end := start + rnd.Intn(rows-start+1)
			want := f.SelectInto(start, end, nil)
			got := ef.SelectInto(start, end, nil)
			selEqual(t, "pred", got, want)
		}
	}
}

// TestEncodedSelectSegmentBase checks segment-relative addressing: the same
// rows selected when the segment does not start at absolute row 0.
func TestEncodedSelectSegmentBase(t *testing.T) {
	rows := 2 * storage.DefaultMorselSize
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i / 1000) // RLE-friendly, values differ per segment
	}
	tab, err := storage.NewTable("t", &storage.Column{Name: "x", Kind: storage.KindInt64, Ints: vals})
	if err != nil {
		t.Fatal(err)
	}
	if tab, err = storage.Resegment(tab, storage.DefaultMorselSize); err != nil {
		t.Fatal(err)
	}
	if tab, err = storage.Seal(tab); err != nil {
		t.Fatal(err)
	}
	seg := tab.Segments()[1]
	if seg.Start() == 0 || seg.Encoding() == nil {
		t.Fatalf("segment 1: start=%d enc=%v", seg.Start(), seg.Encoding())
	}
	f, err := Compile(algebra.NewPredicate().WithRange("x", 70, 90), func(string) []int64 { return vals })
	if err != nil {
		t.Fatal(err)
	}
	ef := f.BindEncoded(seg.Encoding(), seg.Start())
	if ef == nil {
		t.Fatal("BindEncoded returned nil")
	}
	start, end := seg.Start()+123, seg.End()-77
	selEqual(t, "offset segment", ef.SelectInto(start, end, nil), f.SelectInto(start, end, nil))
}

func TestBindEncodedDeclines(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	wide := make([]int64, 4096)
	narrow := make([]int64, 4096)
	for i := range wide {
		wide[i] = int64(rnd.Uint64())
		narrow[i] = int64(i / 64 % 50)
	}
	enc := sealedEncoding(t, map[string][]int64{"wide": wide, "narrow": narrow})
	if enc.Col("narrow") == nil || enc.Col("wide") != nil {
		t.Fatalf("fixture: narrow=%+v wide=%+v, want narrow encoded, wide plain", enc.Col("narrow"), enc.Col("wide"))
	}
	resolve := func(name string) []int64 {
		return map[string][]int64{"wide": wide, "narrow": narrow}[name]
	}

	// Trivial filter: nothing to bind.
	f, err := Compile(algebra.NewPredicate(), resolve)
	if err != nil {
		t.Fatal(err)
	}
	if f.BindEncoded(enc, 0) != nil {
		t.Fatal("trivial filter bound")
	}
	// Filter only over the un-encoded column: no conjunct binds.
	if f, err = Compile(algebra.NewPredicate().WithRange("wide", 0, 1<<32), resolve); err != nil {
		t.Fatal(err)
	}
	if f.BindEncoded(enc, 0) != nil {
		t.Fatal("plain-only filter bound")
	}
	// Nil encoding (open segment).
	if f, err = Compile(algebra.NewPredicate().WithRange("narrow", 0, 10), resolve); err != nil {
		t.Fatal(err)
	}
	if f.BindEncoded(nil, 0) != nil {
		t.Fatal("nil encoding bound")
	}
}

// TestPassRuns pins the fused path's run decomposition: the union of the
// reported all-pass ranges must equal the plain selection exactly, and
// filters with a plain or narrow conjunct must refuse to decompose.
func TestPassRuns(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	const rows = 8192
	runsA := make([]int64, rows)
	runsB := make([]int64, rows)
	narrow := make([]int64, rows)
	wide := make([]int64, rows)
	a, b := int64(0), int64(100)
	for i := range runsA {
		if rnd.Intn(40) == 0 {
			a++
		}
		if rnd.Intn(25) == 0 {
			b += 3
		}
		runsA[i] = a
		runsB[i] = b
		narrow[i] = rnd.Int63n(30)
		wide[i] = int64(rnd.Uint64())
	}
	constCol := make([]int64, rows)
	for i := range constCol {
		constCol[i] = 5
	}
	cols := map[string][]int64{"ra": runsA, "rb": runsB, "narrow": narrow, "wide": wide, "c": constCol}
	enc := sealedEncoding(t, cols)
	if ec := enc.Col("narrow"); ec == nil || ec.Kind != storage.EncNarrow {
		t.Fatalf("shuffled narrow column: %+v, want narrow", ec)
	}
	if ec := enc.Col("wide"); ec != nil {
		t.Fatalf("wide column encoded: %+v", ec)
	}
	resolve := func(name string) []int64 { return cols[name] }

	for trial := 0; trial < 100; trial++ {
		lo1 := runsA[rnd.Intn(rows)]
		lo2 := runsB[rnd.Intn(rows)]
		p := algebra.NewPredicate().
			WithRange("ra", lo1, lo1+rnd.Int63n(8)).
			WithRange("rb", lo2, lo2+rnd.Int63n(20)).
			WithRange("c", 0, 5+rnd.Int63n(2))
		f, err := Compile(p, resolve)
		if err != nil {
			t.Fatal(err)
		}
		ef := f.BindEncoded(enc, 0)
		if ef == nil {
			t.Fatal("BindEncoded returned nil")
		}
		start := rnd.Intn(rows)
		end := start + rnd.Intn(rows-start+1)
		var got []int32
		prev := start - 1
		ok := ef.PassRuns(start, end, func(lo, hi int) {
			if lo <= prev || hi <= lo || hi > end {
				t.Fatalf("bad range [%d,%d) after %d", lo, hi, prev)
			}
			prev = hi
			got = FillRange(got, lo, hi)
		})
		if !ok {
			t.Fatal("RLE/const filter must decompose")
		}
		selEqual(t, "passruns", got, f.SelectInto(start, end, nil))
	}

	// A narrow conjunct (per-row offsets) and a plain conjunct each block
	// decomposition.
	for _, blocker := range []string{"narrow", "wide"} {
		f, err := Compile(algebra.NewPredicate().WithRange("ra", 0, 1<<40).WithRange(blocker, 3, 9), resolve)
		if err != nil {
			t.Fatal(err)
		}
		if ef := f.BindEncoded(enc, 0); ef == nil {
			t.Fatal("BindEncoded returned nil")
		} else if ef.PassRuns(0, rows, func(lo, hi int) { t.Fatal("fn called") }) {
			t.Fatalf("%s conjunct must not decompose", blocker)
		}
	}
}
