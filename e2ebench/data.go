package main

import (
	"fmt"

	"laqy/internal/ssb"
	"laqy/internal/storage"
	"laqy/internal/workload"
)

// dataset is the benchmark's own copy of the generated SSB data: the fact
// columns the statements read plus dense dimension lookups. Ground truth is
// computed from it with plain loops, never through the engine.
type dataset struct {
	rows int
	// Fact columns by row.
	orderdate, partkey, suppkey, quantity, discount, extprice, revenue []int64
	// factDate is the date-dimension row of each fact row; byKey is the
	// fact row holding each lo_intkey value (a permutation of 0..rows-1).
	factDate []int32
	byKey    []int32
	// Date dimension by row, and d_datekey → row.
	dateKey, dateYear, dateYM []int64
	dateRow                   map[int64]int
	// Dimension predicates and attributes by key.
	suppAmerica []bool   // s_region = 'AMERICA', by s_suppkey
	partCat12   []bool   // p_category = 'MFGR#12', by p_partkey
	partBrand   []string // p_brand1, by p_partkey
}

// generate makes the dataset LoadSSB(rows, seed) loads into the engine.
func generate(rows int, seed uint64) (*dataset, error) {
	ds, err := ssb.Generate(ssb.Config{LineorderRows: rows, Seed: seed})
	if err != nil {
		return nil, err
	}
	lo := ds.Lineorder
	d := &dataset{
		rows:      rows,
		orderdate: lo.Column("lo_orderdate").Ints,
		partkey:   lo.Column("lo_partkey").Ints,
		suppkey:   lo.Column("lo_suppkey").Ints,
		quantity:  lo.Column("lo_quantity").Ints,
		discount:  lo.Column("lo_discount").Ints,
		extprice:  lo.Column("lo_extendedprice").Ints,
		revenue:   lo.Column("lo_revenue").Ints,
		dateKey:   ds.Date.Column("d_datekey").Ints,
		dateYear:  ds.Date.Column("d_year").Ints,
		dateYM:    ds.Date.Column("d_yearmonthnum").Ints,
		dateRow:   map[int64]int{},
	}
	for i, k := range d.dateKey {
		d.dateRow[k] = i
	}
	d.factDate = make([]int32, rows)
	for i, od := range d.orderdate {
		r, ok := d.dateRow[od]
		if !ok {
			return nil, fmt.Errorf("lo_orderdate %d has no date row", od)
		}
		d.factDate[i] = int32(r)
	}
	d.byKey = make([]int32, rows)
	for i, k := range lo.Column("lo_intkey").Ints {
		d.byKey[k] = int32(i)
	}
	d.suppAmerica = stringsByKey(ds.Supplier, "s_suppkey", "s_region", func(v string) bool { return v == "AMERICA" })
	d.partCat12 = stringsByKey(ds.Part, "p_partkey", "p_category", func(v string) bool { return v == "MFGR#12" })
	brand := ds.Part.Column("p_brand1")
	keys := ds.Part.Column("p_partkey").Ints
	d.partBrand = make([]string, maxOf(keys)+1)
	for i, k := range keys {
		d.partBrand[k] = brand.Dict.Value(brand.Ints[i])
	}
	return d, nil
}

// stringsByKey evaluates pred on a dictionary column, indexed by the
// table's integer key column.
func stringsByKey(t *storage.Table, key, col string, pred func(string) bool) []bool {
	keys := t.Column(key).Ints
	c := t.Column(col)
	out := make([]bool, maxOf(keys)+1)
	for i, k := range keys {
		out[k] = pred(c.Dict.Value(c.Ints[i]))
	}
	return out
}

func maxOf(v []int64) int64 {
	var m int64
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// shape is the form of a statement's answer.
type shape int

const (
	shapeExact shape = iota // ungrouped exact SUM
	shapeQ1                 // GROUP BY lo_orderdate, sampler at the scan
	shapeQ2                 // GROUP BY d_year, p_brand1 after three joins
)

// stmt is one workload statement with its ground truth.
type stmt struct {
	sql   string
	shape shape
	want  *truth
}

// gkey is one answer group: lo_orderdate or d_year in a, p_brand1 in b.
type gkey struct {
	a int64
	b string
}

// truth is the exact answer of a statement. All sums stay far below 2^53,
// so the engine's float64 answers represent them exactly.
type truth struct {
	total  int64          // shapeExact
	byDate []int64        // shapeQ1, by date row
	groups map[gkey]int64 // shapeQ2
}

// value returns the true sum of group g, and whether the group exists.
func (t *truth) value(d *dataset, g gkey) (int64, bool) {
	if t.byDate != nil {
		r, ok := d.dateRow[g.a]
		if !ok || t.byDate[r] == 0 {
			return 0, false
		}
		return t.byDate[r], true
	}
	v, ok := t.groups[g]
	return v, ok
}

// each calls fn for every group of the truth.
func (t *truth) each(d *dataset, fn func(g gkey, v int64)) {
	for r, v := range t.byDate {
		if v != 0 {
			fn(gkey{a: d.dateKey[r]}, v)
		}
	}
	for g, v := range t.groups {
		fn(g, v)
	}
}

// q1spec is one SSB Q1.x filter: a date condition on the date dimension
// plus discount and quantity ranges on the fact table.
type q1spec struct {
	name           string
	year, ym       int64 // 0 leaves the attribute unconstrained
	dateSQL        string
	discLo, discHi int64
	qtyLo, qtyHi   int64
	factSQL        string
}

// ssbQ1 are SSB Q1.1–Q1.3. The generator's calendar has no week column, so
// Q1.3 uses one month of the year, as ssb_queries_test.go does.
var ssbQ1 = []q1spec{
	{name: "Q1.1", year: 1993, dateSQL: "d_year = 1993",
		discLo: 1, discHi: 3, qtyLo: 0, qtyHi: 24,
		factSQL: "lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25"},
	{name: "Q1.2", ym: 199401, dateSQL: "d_yearmonthnum = 199401",
		discLo: 4, discHi: 6, qtyLo: 26, qtyHi: 35,
		factSQL: "lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35"},
	{name: "Q1.3", year: 1994, ym: 199402, dateSQL: "d_yearmonthnum = 199402 AND d_year = 1994",
		discLo: 5, discHi: 7, qtyLo: 26, qtyHi: 35,
		factSQL: "lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35"},
}

// ssbExact builds the six ssb-exact statements: each Q1.x as a date join
// and as a flat lo_orderdate range over the same days. Both forms must
// have the same answer; a disagreement is a bug in this file.
func ssbExact(d *dataset) ([]*stmt, error) {
	var out []*stmt
	for _, q := range ssbQ1 {
		dateOK := func(r int) bool {
			return (q.year == 0 || d.dateYear[r] == q.year) && (q.ym == 0 || d.dateYM[r] == q.ym)
		}
		first, last := int64(-1), int64(-1)
		for r, k := range d.dateKey {
			if dateOK(r) {
				if first < 0 {
					first = k
				}
				last = k
			}
		}
		var join, flat int64
		for i := range d.orderdate {
			if d.discount[i] < q.discLo || d.discount[i] > q.discHi ||
				d.quantity[i] < q.qtyLo || d.quantity[i] > q.qtyHi {
				continue
			}
			v := d.extprice[i] * d.discount[i]
			if dateOK(int(d.factDate[i])) {
				join += v
			}
			if d.orderdate[i] >= first && d.orderdate[i] <= last {
				flat += v
			}
		}
		if join != flat || join == 0 {
			return nil, fmt.Errorf("%s: join truth %d, flat truth %d", q.name, join, flat)
		}
		want := &truth{total: join}
		out = append(out,
			&stmt{shape: shapeExact, want: want, sql: fmt.Sprintf(
				"SELECT SUM(lo_extendedprice*lo_discount) FROM lineorder, date WHERE lo_orderdate = d_datekey AND %s AND %s",
				q.dateSQL, q.factSQL)},
			&stmt{shape: shapeExact, want: want, sql: fmt.Sprintf(
				"SELECT SUM(lo_extendedprice*lo_discount) FROM lineorder WHERE lo_orderdate BETWEEN %d AND %d AND %s",
				first, last, q.factSQL)})
	}
	return out, nil
}

// exploreK is the per-stratum reservoir capacity of the exploration
// queries: rows/25000 at the benchmark's 1M rows, the sample ≪ data regime
// internal/bench uses for the paper's sequence experiments.
const exploreK = 40

const (
	q1SQL = "SELECT lo_orderdate, SUM(lo_revenue) FROM lineorder WHERE lo_intkey BETWEEN %d AND %d " +
		"GROUP BY lo_orderdate APPROX WITH K %d"
	q2SQL = "SELECT d_year, p_brand1, SUM(lo_revenue) FROM lineorder, date, part, supplier " +
		"WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey " +
		"AND s_region = 'AMERICA' AND p_category = 'MFGR#12' AND lo_intkey BETWEEN %d AND %d " +
		"GROUP BY d_year, p_brand1 APPROX WITH K %d"
)

// rangeKey identifies one exploration range, to share truths between
// repeated steps.
type rangeKey struct {
	shape  shape
	lo, hi int64
}

// exploreSets is how many sequence sets a run cycles through. A set is the
// paper's exploratory sequences, LongRunning(50) and ShortRunning(3×20),
// each in the Q1 and the Q2 shape, under its own sub-seed. Range widths and
// overlaps differ a lot from one sub-seed to the next, so a run averages
// over several sets rather than letting one draw decide its figures.
const exploreSets = 16

// subSeed derives the i-th sub-seed of seed.
func subSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9E3779B97F4A7C15 }

// exploreSeqs builds the sequence sets: set → sequence → statement.
func exploreSeqs(d *dataset, seed uint64) [][][]*stmt {
	cache := map[rangeKey]*truth{}
	var sets [][][]*stmt
	for set := 0; set < exploreSets; set++ {
		cfg := workload.Config{Domain: int64(d.rows), Seed: subSeed(seed^0xA11CE, set)}
		var seqs [][]*stmt
		for _, sh := range []shape{shapeQ1, shapeQ2} {
			for _, steps := range [][]workload.Step{workload.LongRunning(cfg, 50), workload.ShortRunning(cfg, 3, 20)} {
				seq := make([]*stmt, len(steps))
				for i, s := range steps {
					seq[i] = d.rangeStmt(sh, s.Lo, s.Hi, cache)
				}
				seqs = append(seqs, seq)
			}
		}
		sets = append(sets, seqs)
	}
	return sets
}

// rangeStmt builds the sh-shaped statement over lo_intkey ∈ [lo, hi].
func (d *dataset) rangeStmt(sh shape, lo, hi int64, cache map[rangeKey]*truth) *stmt {
	k := rangeKey{sh, lo, hi}
	t := cache[k]
	if t == nil {
		t = d.rangeTruth(sh, lo, hi)
		cache[k] = t
	}
	format := q1SQL
	if sh == shapeQ2 {
		format = q2SQL
	}
	return &stmt{sql: fmt.Sprintf(format, lo, hi, exploreK), shape: sh, want: t}
}

// rangeTruth is the exact answer of the sh-shaped statement over the base
// data.
func (d *dataset) rangeTruth(sh shape, lo, hi int64) *truth {
	if sh == shapeQ1 {
		t := &truth{byDate: make([]int64, len(d.dateKey))}
		for k := lo; k <= hi; k++ {
			r := d.byKey[k]
			t.byDate[d.factDate[r]] += d.revenue[r]
		}
		return t
	}
	t := &truth{groups: map[gkey]int64{}}
	for k := lo; k <= hi; k++ {
		r := d.byKey[k]
		if d.suppAmerica[d.suppkey[r]] && d.partCat12[d.partkey[r]] {
			t.groups[gkey{a: d.dateYear[d.factDate[r]], b: d.partBrand[d.partkey[r]]}] += d.revenue[r]
		}
	}
	return t
}

// Ingest shape: each epoch appends ingestRounds batches of rows/400 new
// lineorder rows, and after each batch runs the next ingestQueries steps of
// a Q1-shape exploration (ShortRunning: ten analyses of 20 steps) whose
// stored samples the appends maintain. Epochs cycle through ingestEpochs
// explorations, for the reason exploreSets gives; short analyses keep one
// long range-growing draw from dominating an epoch.
const (
	ingestRounds  = 20
	ingestQueries = 10
	ingestEpochs  = 5
)

// ingestPlan holds the appended batches, shared by all epochs, and each
// epoch's queries.
type ingestPlan struct {
	names   []string    // lineorder column names
	batches [][][]int64 // batch → column → values
	epochs  [][][]*stmt // epoch → round → queries, truth over base + batches so far
}

// ingest builds the plan: batches come from ssb.Generate under a seed
// distinct from the base data's. Their lo_intkey values are spread over the
// base key domain so that the exploration ranges cover appended rows.
func ingest(d *dataset, seed uint64) (*ingestPlan, error) {
	batchRows := max(d.rows/400, 1)
	n := batchRows * ingestRounds
	ds, err := ssb.Generate(ssb.Config{LineorderRows: n, Seed: seed ^ 0xB47C4})
	if err != nil {
		return nil, err
	}
	p := &ingestPlan{}
	cols := ds.Lineorder.Columns()
	all := make([][]int64, len(cols))
	var keys []int64
	for i, c := range cols {
		p.names = append(p.names, c.Name)
		all[i] = c.Ints
		if c.Name == "lo_intkey" {
			keys = make([]int64, n)
			for j, k := range c.Ints {
				keys[j] = k * int64(d.rows) / int64(n)
			}
			all[i] = keys
		}
	}
	for b := 0; b < ingestRounds; b++ {
		batch := make([][]int64, len(cols))
		for i := range cols {
			batch[i] = all[i][b*batchRows : (b+1)*batchRows]
		}
		p.batches = append(p.batches, batch)
	}
	od, rev := ds.Lineorder.Column("lo_orderdate").Ints, ds.Lineorder.Column("lo_revenue").Ints
	for e := 0; e < ingestEpochs; e++ {
		cfg := workload.Config{Domain: int64(d.rows), Seed: subSeed(seed^0x1A6E57, e)}
		steps := workload.ShortRunning(cfg, 10, ingestRounds*ingestQueries/10)
		var rounds [][]*stmt
		for r := 0; r < ingestRounds; r++ {
			var round []*stmt
			for _, s := range steps[r*ingestQueries : (r+1)*ingestQueries] {
				t := d.rangeTruth(shapeQ1, s.Lo, s.Hi)
				for j := 0; j < (r+1)*batchRows; j++ {
					if keys[j] >= s.Lo && keys[j] <= s.Hi {
						t.byDate[d.dateRow[od[j]]] += rev[j]
					}
				}
				round = append(round, &stmt{sql: fmt.Sprintf(q1SQL, s.Lo, s.Hi, exploreK), shape: shapeQ1, want: t})
			}
			rounds = append(rounds, round)
		}
		p.epochs = append(p.epochs, rounds)
	}
	return p, nil
}

// dropFact releases the fact columns once every truth is computed, so that
// the live heap a run reports is almost all the program's.
func (d *dataset) dropFact() {
	d.orderdate, d.partkey, d.suppkey, d.quantity, d.discount, d.extprice, d.revenue = nil, nil, nil, nil, nil, nil, nil
	d.factDate, d.byKey = nil, nil
}
