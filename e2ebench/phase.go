package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"laqy"
	"laqy/internal/server"
)

// passSig is what one pass of a workload must reproduce exactly: a pass is
// the unit a client repeats (one cycle of the ssb-exact statements, one run
// of the four exploratory sequences, one ingest epoch). Modes and rows
// scanned depend only on the statements and the reuse decisions, never on
// timing or on the sampler's random draws.
type passSig struct {
	Queries     int   `json:"queries"`
	Appends     int   `json:"appends"`
	Exact       int   `json:"exact"`
	Online      int   `json:"online"`
	Partial     int   `json:"partial"`
	Offline     int   `json:"offline"`
	RowsScanned int64 `json:"rows_scanned"`
	Maintained  int64 `json:"maintained"`
}

// passAcc accumulates a pass; a pass with any failed op is not compared.
type passAcc struct {
	sig    passSig
	broken bool
}

func (p *passAcc) add(a *answer) {
	p.sig.Queries++
	p.sig.RowsScanned += a.rowsScanned
	switch a.mode {
	case "exact":
		p.sig.Exact++
	case "online":
		p.sig.Online++
	case "partial":
		p.sig.Partial++
	case "offline":
		p.sig.Offline++
	}
}

// wrongAnswer marks an answer that failed its check.
type wrongAnswer struct {
	sql string
	err error
}

func (w *wrongAnswer) Error() string { return fmt.Sprintf("wrong answer to %q: %v", w.sql, w.err) }

// statusError is a non-2xx HTTP response.
type statusError struct {
	code int
	msg  string
}

func (s *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", s.code, s.msg) }

// refusal reports whether err is the program declining work (governor
// admission, a draining server) rather than failing it.
func refusal(err error) bool {
	var over *laqy.OverloadedError
	var st *statusError
	return errors.As(err, &over) ||
		errors.As(err, &st) && (st.code == http.StatusTooManyRequests || st.code == http.StatusServiceUnavailable)
}

// phase is one measurement window: a closed loop of ops until deadline.
// With spans set it is the traced window, which also gathers per-layer
// figures.
type phase struct {
	d        *dataset
	spans    *spanLog
	perturb  func(*answer)
	deadline time.Time
	// minQueries keeps the window open past deadline, up to hardDeadline,
	// until it has timed this many queries.
	minQueries   int
	hardDeadline time.Time

	mu        sync.Mutex
	lat       []float64 // query latency, ms; +Inf for failed and refused ops
	appendLat []float64 // ms
	passes    map[string][]passSig
	storeMax  int64
	resets    time.Duration // untimed DB rebuilds inside the window
	passHeap  []float64     // ingest: HeapAlloc after GC at each completed epoch's end
	deltas    metricDelta

	attempted, succeeded, degraded, refused, failed int

	wrong     error // first wrong answer
	firstErr  error // first failed op
	relErrSum float64
	approx    int // approximate answers scored
	groups    int
	covered   int

	// Traced window only.
	byName    map[string]*durs
	rootSelf  durs
	overhead  durs // HTTP round trip minus the engine's stats.total_ns
	decode    durs // envelope decode
	respB     int64
	responses int
}

func newPhase(d *dataset, seconds time.Duration, spans *spanLog, perturb func(*answer)) *phase {
	return &phase{
		d: d, spans: spans, perturb: perturb,
		deadline:     time.Now().Add(seconds),
		hardDeadline: time.Now().Add(2 * seconds),
		passes:       map[string][]passSig{},
		byName:       map[string]*durs{},
		deltas:       metricDelta{c: map[string]int64{}, h: map[string]laqy.HistogramStat{}},
	}
}

func (p *phase) expired() bool {
	now := time.Now()
	if now.Before(p.deadline) {
		return false
	}
	if !now.Before(p.hardDeadline) {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lat) >= p.minQueries
}

// call runs one untimed call into the program under a span.
func (p *phase) call(name string, fn func()) {
	id := p.spans.begin(name, 0)
	fn()
	p.spans.end(id)
}

// query runs one statement through the embedded API. It reports false,
// doing nothing, once the window has closed.
func (p *phase) query(db *laqy.DB, s *stmt, pass *passAcc) bool {
	if p.expired() {
		return false
	}
	id := p.spans.begin("Query", 0)
	start := time.Now()
	res, err := db.Query(s.sql)
	el := time.Since(start)
	p.spans.end(id)
	var a *answer
	if err == nil {
		a = fromResult(res)
		if res.Trace != nil && p.spans != nil {
			p.spans.addProgram(res.Trace.Root, id)
			p.mu.Lock()
			harvest(res.Trace, p.byName, &p.rootSelf)
			p.mu.Unlock()
		}
	}
	p.record(s, a, err, el, pass)
	return true
}

// post runs one statement through the HTTP server. The latency covers the
// POST, reading the body and decoding the envelope.
func (p *phase) post(c *http.Client, url string, s *stmt, pass *passAcc) bool {
	if p.expired() {
		return false
	}
	body, err := json.Marshal(server.QueryRequest{SQL: s.sql})
	if err != nil {
		panic(err) // invariant: QueryRequest always marshals
	}
	id := p.spans.begin("HTTP POST", 0)
	start := time.Now()
	var raw []byte
	status := 0
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err == nil {
		status = resp.StatusCode
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rtt := time.Since(start)
	var env server.Envelope
	if err == nil {
		did := p.spans.begin("decode", id)
		dstart := time.Now()
		err = json.Unmarshal(raw, &env)
		p.spans.end(did)
		if p.spans != nil {
			p.mu.Lock()
			p.decode.add(time.Since(dstart))
			p.mu.Unlock()
		}
	}
	el := time.Since(start)
	p.spans.end(id)
	var a *answer
	if err == nil {
		switch {
		case status != http.StatusOK && status != http.StatusPartialContent:
			msg := ""
			if env.Error != nil {
				msg = env.Error.Code + ": " + env.Error.Message
			}
			err = &statusError{code: status, msg: msg}
		default:
			a, err = fromEnvelope(&env, status)
		}
	}
	if err == nil && p.spans != nil && env.Stats != nil {
		p.mu.Lock()
		p.overhead.add(rtt - time.Duration(env.Stats.TotalNS))
		p.respB += int64(len(raw))
		p.responses++
		p.mu.Unlock()
	}
	p.record(s, a, err, el, pass)
	return true
}

// record classifies and checks one finished query.
func (p *phase) record(s *stmt, a *answer, err error, el time.Duration, pass *passAcc) {
	var sc score
	if err == nil {
		if p.perturb != nil {
			p.perturb(a)
		}
		var cerr error
		if sc, cerr = p.d.check(s, a); cerr != nil {
			err = &wrongAnswer{sql: s.sql, err: cerr}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		pass.broken = true
		p.lat = append(p.lat, math.Inf(1))
		var w *wrongAnswer
		switch {
		case errors.As(err, &w):
			p.failed++
			if p.wrong == nil {
				p.wrong = err
			}
		case refusal(err):
			p.refused++
		default:
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
		return
	}
	p.succeeded++
	p.lat = append(p.lat, float64(el)/float64(time.Millisecond))
	if a.degraded {
		p.degraded++
	}
	if s.shape != shapeExact {
		p.approx++
		p.relErrSum += sc.relErr
		p.groups += sc.groups
		p.covered += sc.covered
	}
	pass.add(a)
}

// appendBatch appends one batch and counts the stored samples Append
// maintained (store updates during the call; nothing else runs then).
func (p *phase) appendBatch(db *laqy.DB, b *laqy.TableBuilder, pass *passAcc) bool {
	if p.expired() {
		return false
	}
	before := db.Metrics().Counters[storeUpdates]
	id := p.spans.begin("Append", 0)
	start := time.Now()
	err := db.Append("lineorder", b)
	el := time.Since(start)
	p.spans.end(id)
	maintained := db.Metrics().Counters[storeUpdates] - before
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		pass.broken = true
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		p.appendLat = append(p.appendLat, math.Inf(1))
		return true
	}
	p.succeeded++
	p.appendLat = append(p.appendLat, float64(el)/float64(time.Millisecond))
	pass.sig.Appends++
	pass.sig.Maintained += maintained
	return true
}

// endPass files a completed pass of the kind's input set.
func (p *phase) endPass(kind string, set int, pass *passAcc) {
	if pass.broken {
		return
	}
	k := fmt.Sprintf("%s#%d", kind, set)
	p.mu.Lock()
	p.passes[k] = append(p.passes[k], pass.sig)
	p.mu.Unlock()
}

// noteStore tracks the largest sample-store footprint seen.
func (p *phase) noteStore(db *laqy.DB) {
	b := db.SampleStoreStats().Bytes
	p.mu.Lock()
	p.storeMax = max(p.storeMax, b)
	p.mu.Unlock()
}

// metricDelta sums the change of the program's own metrics over a window.
type metricDelta struct {
	c map[string]int64
	h map[string]laqy.HistogramStat
}

func (m *metricDelta) add(before, after laqy.MetricsSnapshot) {
	for k, v := range after.Counters {
		m.c[k] += v - before.Counters[k]
	}
	for k, v := range after.Histograms {
		b := before.Histograms[k]
		h := m.h[k]
		h.Count += v.Count - b.Count
		h.Sum += v.Sum - b.Sum
		m.h[k] = h
	}
}

// snapshot runs fn and adds the change of db's metrics across it.
func (m *metricDelta) snapshot(db *laqy.DB, fn func()) {
	before := db.Metrics()
	fn()
	m.add(before, db.Metrics())
}

// mean returns the mean of histogram k over the window in unit.
func (m *metricDelta) mean(k string, unit time.Duration) float64 {
	h := m.h[k]
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count) / float64(unit)
}

// share returns num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
