package laqy

import (
	"fmt"
	"sort"
	"testing"

	"laqy/internal/obs"
	"laqy/internal/ssb"
	"laqy/internal/storage"
)

// loadClusteredSSB loads SSB with lineorder sorted by lo_orderdate — the
// date-clustered layout of a time-ordered load — so sealed segments
// RLE-encode lo_orderdate. LoadSSB's shuffled lineorder gives its narrow
// columns narrow offsets instead, so the RLE kernels need this layout to
// be exercised on SSB queries.
func loadClusteredSSB(t *testing.T, db *DB, rows int, seed uint64) {
	t.Helper()
	data, err := ssb.Generate(ssb.Config{LineorderRows: rows, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lo := data.Lineorder
	date := lo.Column("lo_orderdate").Ints
	perm := make([]int, len(date))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return date[perm[a]] < date[perm[b]] })
	var cols []*storage.Column
	for _, c := range lo.Columns() {
		ints := make([]int64, len(perm))
		for i, p := range perm {
			ints[i] = c.Ints[p]
		}
		cols = append(cols, &storage.Column{Name: c.Name, Kind: c.Kind, Ints: ints, Dict: c.Dict})
	}
	if data.Lineorder, err = storage.NewTable(lo.Name, cols...); err != nil {
		t.Fatal(err)
	}
	if err := db.registerSSB(data); err != nil {
		t.Fatal(err)
	}
}

// encodedMorsels reads the DB's encoded-morsel counter.
func encodedMorsels(db *DB) int64 {
	return db.Metrics().Counters[obs.MEngineMorselsEncoded]
}

// queryRowsFingerprint renders a result's rows exactly (groups and full
// float64 bits) for bitwise comparisons between the encoded path and the
// DisableEncoding reference.
func queryRowsFingerprint(res *Result) string {
	out := ""
	for _, row := range res.Rows {
		for _, g := range row.Groups {
			if g.IsString {
				out += g.Str + "|"
			} else {
				out += fmt.Sprintf("%d|", g.Int)
			}
		}
		for _, a := range row.Aggs {
			out += fmt.Sprintf("%x/%x;", a.Value, a.StdErr)
		}
		out += "\n"
	}
	return out
}

// encodingTestQueries sweeps exact paths (fused ungrouped, grouped, joined)
// and the approximate path, with predicates over lo_orderdate (RLE when
// clustered, narrow when shuffled) alone and mixed with narrow and plain
// columns.
var encodingTestQueries = []string{
	`SELECT SUM(lo_revenue) FROM lineorder WHERE lo_orderdate BETWEEN 20070101 AND 20071231`,
	`SELECT SUM(lo_revenue), COUNT(*) FROM lineorder WHERE lo_orderdate BETWEEN 19940215 AND 19950630`,
	`SELECT SUM(lo_extendedprice * lo_discount) FROM lineorder
		WHERE lo_orderdate BETWEEN 19930101 AND 19931231 AND lo_discount BETWEEN 1 AND 3
		AND lo_quantity < 25`,
	`SELECT SUM(lo_revenue), COUNT(*), AVG(lo_extendedprice) FROM lineorder
		WHERE lo_orderdate BETWEEN 20070101 AND 20071231 AND lo_discount BETWEEN 1 AND 3
		AND lo_quantity < 25`,
	`SELECT COUNT(*) FROM lineorder WHERE lo_quantity BETWEEN 60 AND 70`, // empty
	`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 20000 GROUP BY lo_quantity`,
	`SELECT d_year, SUM(lo_revenue) FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND lo_discount BETWEEN 1 AND 3 GROUP BY d_year`,
	`SELECT lo_quantity, SUM(lo_revenue) FROM lineorder
		WHERE lo_intkey BETWEEN 0 AND 20000 GROUP BY lo_quantity APPROX WITH K 64`,
	`SELECT lo_discount, SUM(lo_revenue) FROM lineorder
		WHERE lo_orderdate BETWEEN 19940101 AND 19960630 AND lo_quantity < 30
		GROUP BY lo_discount APPROX WITH K 64`,
}

// TestEncodingEquivalenceQueries pins whole-query answers over encoded
// storage bitwise to a DisableEncoding twin DB fed the same data and seeds,
// including Δ-maintenance: both DBs append mid-run and re-query, so the
// Δ-scan (which starts mid-segment) and the sample merge are covered. It
// runs over the shuffled lineorder (narrow kernels) and the date-clustered
// one (RLE kernels).
func TestEncodingEquivalenceQueries(t *testing.T) {
	for _, layout := range []string{"shuffled", "clustered"} {
		t.Run(layout, func(t *testing.T) { encodingEquivalence(t, layout == "clustered") })
	}
}

func encodingEquivalence(t *testing.T, clustered bool) {
	const rows = 50_000
	open := func(disable bool) *DB {
		db := Open(Config{Workers: 1, DefaultK: 128, Seed: 7, DisableEncoding: disable})
		if clustered {
			loadClusteredSSB(t, db, rows, 11)
		} else if err := db.LoadSSB(rows, 11); err != nil {
			t.Fatal(err)
		}
		return db
	}
	enc, ref := open(false), open(true)

	appendRows := func(db *DB) {
		lo, err := db.catalog.Table("lineorder")
		if err != nil {
			t.Fatal(err)
		}
		b := NewTable("lineorder")
		for _, c := range lo.Columns() {
			// Recycle the first 500 rows as the appended batch.
			b.Int64(c.Name, append([]int64{}, c.Ints[:500]...))
		}
		if err := db.Append("lineorder", b); err != nil {
			t.Fatal(err)
		}
	}

	runBoth := func(phase string) {
		for qi, q := range encodingTestQueries {
			got, err := enc.Query(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", phase, qi, err)
			}
			want, err := ref.Query(q)
			if err != nil {
				t.Fatalf("%s query %d (reference): %v", phase, qi, err)
			}
			if g, w := queryRowsFingerprint(got), queryRowsFingerprint(want); g != w {
				t.Fatalf("%s query %d: encoded answer differs from DisableEncoding reference\nencoded:\n%s\nreference:\n%s",
					phase, qi, g, w)
			}
		}
	}
	runBoth("initial")
	// Δ-maintenance: appended rows land in the open (plain) segment; cached
	// samples extend via a mid-segment Δ-scan on both DBs.
	appendRows(enc)
	appendRows(ref)
	runBoth("post-append")

	// The sweep must actually take the encoded kernels, or the equivalence
	// above is vacuous.
	if got := encodedMorsels(enc); got == 0 {
		t.Fatal("no encoded morsels on the encoded DB")
	}
	if got := encodedMorsels(ref); got != 0 {
		t.Fatalf("DisableEncoding DB ran %d encoded morsels", got)
	}
	// The encoded scan representations are smaller than the plain bytes.
	st := enc.StorageStats()
	if st.PhysicalBytes >= st.LogicalBytes {
		t.Fatalf("no compression: physical %d >= logical %d", st.PhysicalBytes, st.LogicalBytes)
	}
	refSt := ref.StorageStats()
	if refSt.PhysicalBytes != refSt.LogicalBytes {
		t.Fatalf("DisableEncoding DB compressed: %+v", refSt)
	}
}

// TestWithEncodingDisabledOption checks the per-query opt-out: same
// answers, and only the default path runs encoded morsels.
func TestWithEncodingDisabledOption(t *testing.T) {
	db := Open(Config{Workers: 1, DefaultK: 128, Seed: 3})
	loadClusteredSSB(t, db, 30_000, 5)
	q := `SELECT SUM(lo_revenue) FROM lineorder
		WHERE lo_orderdate BETWEEN 19940101 AND 19941231 AND lo_discount BETWEEN 1 AND 3`
	enc, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	afterEnc := encodedMorsels(db)
	if afterEnc == 0 {
		t.Fatal("default path ran no encoded morsels")
	}
	plain, err := db.Query(q, WithEncodingDisabled())
	if err != nil {
		t.Fatal(err)
	}
	if got := encodedMorsels(db); got != afterEnc {
		t.Fatalf("WithEncodingDisabled ran %d encoded morsels", got-afterEnc)
	}
	if queryRowsFingerprint(enc) != queryRowsFingerprint(plain) {
		t.Fatalf("answers differ: %v vs %v", enc.Rows, plain.Rows)
	}
}

// TestStorageStatsSSB pins the byte ledgers: in shuffled SSB lineorder
// (runs ≈ rows in every column) the narrow-domain columns take 8- or 16-bit
// offsets and the wide ones stay plain, so physical bytes drop below
// logical by exactly the narrow columns' savings; a table with clustered
// and constant columns reports its RLE and const representations below
// the plain bytes.
func TestStorageStatsSSB(t *testing.T) {
	db := Open(Config{DefaultK: 64, Seed: 1})
	if err := db.LoadSSB(200_000, 9); err != nil {
		t.Fatal(err)
	}
	lo, err := db.catalog.Table("lineorder")
	if err != nil {
		t.Fatal(err)
	}
	phys, logical := lo.EncodedSizes()
	enc := lo.Segments()[0].Encoding()
	for name, perRow := range map[string]int64{
		"lo_discount": 1, "lo_quantity": 1, "lo_orderdate": 2, "lo_extendedprice": 8, "lo_revenue": 8,
	} {
		ec := enc.Col(name)
		switch {
		case perRow == 8 && ec != nil:
			t.Fatalf("%s encoded as %v, want plain", name, ec.Kind)
		case perRow < 8 && (ec == nil || ec.Kind != storage.EncNarrow || ec.PhysBytes != perRow*int64(ec.Rows)):
			t.Fatalf("%s: enc %v, want narrow at %d B/row", name, ec, perRow)
		}
	}
	var saved int64
	for _, c := range lo.Columns() {
		if ec := enc.Col(c.Name); ec != nil {
			saved += int64(ec.Rows)*8 - ec.PhysBytes
		}
	}
	if len(lo.Segments()) != 2 || lo.Segments()[1].Rows() != 0 || saved <= 0 || phys != logical-saved {
		t.Fatalf("shuffled lineorder: physical %d bytes, logical %d, narrow savings %d", phys, logical, saved)
	}
	before := db.StorageStats()

	const rows = 100_000
	day := make([]int64, rows)
	one := make([]int64, rows)
	for i := range day {
		day[i] = int64(i / 500) // clustered: RLE
		one[i] = 1              // constant
	}
	if err := db.Register(NewTable("events").Int64("ev_day", day).Int64("ev_one", one)); err != nil {
		t.Fatal(err)
	}
	ev, err := db.catalog.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	phys, logical = ev.EncodedSizes()
	if logical != rows*2*8 || phys >= logical {
		t.Fatalf("events: physical %d bytes, logical %d, want physical < logical = %d", phys, logical, rows*2*8)
	}
	// The forced builds land on the DB-wide stats: the new table adds its
	// full logical size but less than that physically.
	st := db.StorageStats()
	if st.LogicalBytes-before.LogicalBytes != logical || st.PhysicalBytes-before.PhysicalBytes != phys {
		t.Fatalf("storage stats %+v -> %+v, want +%d physical, +%d logical", before, st, phys, logical)
	}
}
