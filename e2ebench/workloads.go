package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"laqy"
	"laqy/internal/server"
)

const (
	// storeUpdates counts stored samples replaced in place: by Δ merges
	// and by the maintenance Append runs.
	storeUpdates = "laqy_store_updates_total"
	// warmSQL is the set-up scan that builds the lineorder zone maps.
	warmSQL = "SELECT COUNT(*) FROM lineorder WHERE lo_orderdate BETWEEN 19920101 AND 19921230"
)

// workloads maps each workload name to the function that runs one window
// of it. BENCHMARK.json says why each exists.
var workloads = map[string]func(e *env, p *phase) error{
	"ssb-exact":   runExact,
	"explore":     runExplore,
	"serve-mixed": runServe,
	"ingest":      runIngest,
}

// plan is a workload's generated inputs.
type plan struct {
	exact  []*stmt     // ssb-exact statements
	sets   [][][]*stmt // exploratory sequence sets
	ingest *ingestPlan // ingest epochs
}

// env is one benchmark run: the inputs and the DB under test.
type env struct {
	o     options
	d     *dataset
	plan  plan
	db    *laqy.DB
	fresh bool     // db has run no workload op yet
	spans *spanLog // nil unless the run is traced
}

// setup is one DB set-up: Open, LoadSSB, the forced lazy encoding builds
// (StorageStats) and one exact scan, which builds the lazy zone maps that
// have no forcing call of their own.
func (e *env) setup() (db *laqy.DB, total, build time.Duration, err error) {
	start := time.Now()
	db = laqy.Open(laqy.Config{Seed: e.o.seed})
	id := e.spans.begin("LoadSSB", 0)
	err = db.LoadSSB(e.o.rows, e.o.seed)
	e.spans.end(id)
	if err != nil {
		return nil, 0, 0, err
	}
	b := time.Now()
	id = e.spans.begin("StorageStats", 0)
	db.StorageStats()
	e.spans.end(id)
	build = time.Since(b)
	id = e.spans.begin("Query", 0)
	_, err = db.Query(warmSQL)
	e.spans.end(id)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("warm-up scan: %w", err)
	}
	return db, time.Since(start), build, nil
}

// runExact cycles the six ssb-exact statements from one client.
func runExact(e *env, p *phase) error {
	p.deltas.snapshot(e.db, func() {
		for {
			var pass passAcc
			for _, s := range e.plan.exact {
				if !p.query(e.db, s, &pass) {
					return
				}
			}
			p.endPass("ssb-exact", 0, &pass)
		}
	})
	return nil
}

// runExplore runs the exploratory sequences from one client, clearing the
// sample store before each so that every pass does the same work.
func runExplore(e *env, p *phase) error {
	p.deltas.snapshot(e.db, func() { explorePasses(e.db, e.plan.sets, p, p.query) })
	return nil
}

// explorePasses runs one sequence set per pass, cycling through the sets,
// until the window closes; run sends one statement.
func explorePasses(db *laqy.DB, sets [][][]*stmt, p *phase, run func(*laqy.DB, *stmt, *passAcc) bool) {
	for i := 0; ; i++ {
		var pass passAcc
		for _, seq := range sets[i%len(sets)] {
			p.call("ClearSamples", db.ClearSamples)
			for _, s := range seq {
				if !run(db, s, &pass) {
					return
				}
			}
			p.noteStore(db)
		}
		p.endPass("explore", i%len(sets), &pass)
	}
}

// serveRound is how many statements each serve-mixed client sends in one
// round: one cycle of the six ssb-exact statements.
const serveRound = 6

// rounds keeps the two serve-mixed clients in lock step: each sends
// serveRound statements and then waits for the other. Left to run freely,
// the clients' shares of the window would follow whichever kind of query
// the host happens to favour, and qps and the latency quantiles with them;
// in rounds every window holds the same mix.
type rounds struct {
	mu      sync.Mutex
	cond    sync.Cond
	waiting int
	gen     int
	stopped bool
}

func newRounds() *rounds {
	r := &rounds{}
	r.cond.L = &r.mu
	return r
}

// wait blocks until the other client has finished its round too. It
// reports false once either client has stopped.
func (r *rounds) wait() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return false
	}
	r.waiting++
	if r.waiting == 2 {
		r.waiting = 0
		r.gen++
		r.cond.Broadcast()
		return true
	}
	for g := r.gen; g == r.gen && !r.stopped; {
		r.cond.Wait()
	}
	return !r.stopped
}

// stop releases the other client for good; a client calls it on leaving.
func (r *rounds) stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// send returns a client's statement sender: it posts each statement and
// waits for the other client after every serveRound of them.
func (r *rounds) send(p *phase, c *http.Client, url string) func(*laqy.DB, *stmt, *passAcc) bool {
	n := 0
	return func(_ *laqy.DB, s *stmt, pass *passAcc) bool {
		if n == serveRound {
			if !r.wait() {
				return false
			}
			n = 0
		}
		n++
		return p.post(c, url, s, pass)
	}
}

// runServe serves the DB over loopback HTTP to two clients: one cycles the
// ssb-exact statements, the other runs the exploratory sequences, in
// rounds of serveRound statements each. Exact queries never touch the
// sample store, so the explorer's reuse stays deterministic.
func runServe(e *env, p *phase) error {
	srv, err := server.New(server.Config{Tenants: []server.Tenant{{Name: "bench", DB: e.db}}})
	if err != nil {
		return err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	url := "http://" + addr.String() + "/v1/query"
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	c := &http.Client{Transport: tr}
	p.deltas.snapshot(e.db, func() {
		r := newRounds()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer r.stop()
			send := r.send(p, c, url)
			for {
				var pass passAcc
				for _, s := range e.plan.exact {
					if !send(e.db, s, &pass) {
						return
					}
				}
				p.endPass("ssb-exact", 0, &pass)
			}
		}()
		go func() {
			defer wg.Done()
			defer r.stop()
			explorePasses(e.db, e.plan.sets, p, r.send(p, c, url))
		}()
		wg.Wait()
	})
	tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// runIngest appends batches beside Q1-shape exploration. Each epoch starts
// from a freshly loaded DB, so every epoch does the same work; the rebuilds
// are untimed and left out of the window. So is the live heap read at the
// end of each completed epoch: at the window's end an epoch is cut at a
// random round, and the heap then depends on how many batches and samples
// it had reached.
func runIngest(e *env, p *phase) error {
	ip := e.plan.ingest
	for epoch := 0; !p.expired(); epoch++ {
		if !e.fresh {
			start := time.Now()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.passHeap = append(p.passHeap, float64(ms.HeapAlloc))
			e.db = nil
			runtime.GC()
			db, _, _, err := e.setup()
			if err != nil {
				return err
			}
			e.db = db
			p.resets += time.Since(start)
		}
		e.fresh = false
		db := e.db
		db.SetTracing(p.spans != nil)
		done := false
		var pass passAcc
		p.deltas.snapshot(db, func() {
			for r, round := range ip.epochs[epoch%len(ip.epochs)] {
				b := laqy.NewTable("lineorder")
				for i, name := range ip.names {
					b.Int64(name, ip.batches[r][i])
				}
				if !p.appendBatch(db, b, &pass) {
					done = true
					return
				}
				for _, s := range round {
					if !p.query(db, s, &pass) {
						done = true
						return
					}
				}
				p.noteStore(db)
			}
		})
		if done {
			return nil
		}
		p.endPass("ingest", epoch%len(ip.epochs), &pass)
	}
	return nil
}
