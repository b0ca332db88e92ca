package main

import (
	"fmt"
	"math"
	"strconv"

	"laqy"
	"laqy/internal/server"
)

// answer is one query result in a form shared by the embedded API and the
// HTTP envelope.
type answer struct {
	mode        string
	degraded    bool
	rowsScanned int64
	rows        []ansRow
}

type ansRow struct {
	g      gkey
	value  float64
	stderr float64
}

// fromResult converts an embedded-API result.
func fromResult(res *laqy.Result) *answer {
	a := &answer{
		mode:        res.Mode.String(),
		degraded:    res.Stale || len(res.Degradations) > 0,
		rowsScanned: res.Stats.RowsScanned,
		rows:        make([]ansRow, len(res.Rows)),
	}
	for i, r := range res.Rows {
		row := ansRow{}
		if len(r.Groups) > 0 {
			row.g.a = r.Groups[0].Int
		}
		if len(r.Groups) > 1 {
			row.g.b = r.Groups[1].Str
		}
		if len(r.Aggs) != 1 {
			row.value = math.NaN() // rejected by check: every statement has one aggregate
		} else {
			row.value, row.stderr = r.Aggs[0].Value, r.Aggs[0].StdErr
		}
		a.rows[i] = row
	}
	return a
}

// fromEnvelope converts an HTTP response envelope; status 206 marks a
// degraded answer.
func fromEnvelope(env *server.Envelope, status int) (*answer, error) {
	a := &answer{mode: env.Mode, degraded: status == 206 || len(env.Degradations) > 0 || env.Stale}
	if env.Stats != nil {
		a.rowsScanned = env.Stats.RowsScanned
	}
	a.rows = make([]ansRow, len(env.Rows))
	for i, r := range env.Rows {
		row := ansRow{}
		if len(r.Groups) > 0 {
			v, err := strconv.ParseInt(r.Groups[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("group %q: %w", r.Groups[0], err)
			}
			row.g.a = v
		}
		if len(r.Groups) > 1 {
			row.g.b = r.Groups[1]
		}
		if len(r.Aggs) != 1 {
			row.value = math.NaN()
		} else {
			row.value, row.stderr = r.Aggs[0].Value, r.Aggs[0].StdErr
		}
		a.rows[i] = row
	}
	return a, nil
}

// score is the accuracy of one approximate answer against its truth.
type score struct {
	relErr  float64 // Σ|est−truth| / Σ|truth| over the union of groups
	groups  int     // groups in the answer
	covered int     // of which the 95% confidence interval covers the truth
}

// check verifies a against the statement's truth. Exact answers must equal
// it bit for bit. Approximate answers must come from a sampling mode and
// hold only groups the truth has, with finite, non-negative estimates;
// their error is scored, not checked, because it is statistical.
func (d *dataset) check(s *stmt, a *answer) (score, error) {
	if s.shape == shapeExact {
		if a.mode != "exact" {
			return score{}, fmt.Errorf("mode %s, want exact", a.mode)
		}
		if len(a.rows) != 1 || a.rows[0].value != float64(s.want.total) {
			return score{}, fmt.Errorf("answer %v, want %d", a.rows, s.want.total)
		}
		return score{}, nil
	}
	switch a.mode {
	case "online", "partial", "offline":
	default:
		return score{}, fmt.Errorf("mode %s, want a sampling mode", a.mode)
	}
	var sc score
	var absErr, total float64
	seen := make(map[gkey]bool, len(a.rows))
	for _, r := range a.rows {
		want, ok := s.want.value(d, r.g)
		if !ok {
			return score{}, fmt.Errorf("group %v is not in the true answer", r.g)
		}
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) || r.value < 0 ||
			math.IsNaN(r.stderr) || math.IsInf(r.stderr, 0) || r.stderr < 0 {
			return score{}, fmt.Errorf("group %v: estimate %v ± %v", r.g, r.value, r.stderr)
		}
		seen[r.g] = true
		t := float64(want)
		absErr += math.Abs(r.value - t)
		sc.groups++
		lo, hi, err := laqy.AggValue{Value: r.value, StdErr: r.stderr}.ConfidenceInterval(0.95)
		if err != nil {
			return score{}, err
		}
		// A stratum the reservoir holds whole has a zero-width interval
		// around a value computed as weight·mean; allow for that rounding.
		slack := 1e-9 * t
		if t >= lo-slack && t <= hi+slack {
			sc.covered++
		}
	}
	s.want.each(d, func(g gkey, v int64) {
		total += float64(v)
		if !seen[g] {
			absErr += float64(v)
		}
	})
	if total > 0 {
		sc.relErr = absErr / total
	}
	return sc, nil
}
