package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// tiny runs a workload end to end at a small scale.
func tiny(t *testing.T, workload string, trace bool, perturb func(*answer)) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: 3, seconds: 400 * time.Millisecond,
		trace: trace, rows: 20_000, perturb: perturb,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// contractMetrics reads the metric names BENCHMARK.json promises.
func contractMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func TestEveryWorkloadEndToEnd(t *testing.T) {
	endToEnd, perLayer := contractMetrics(t)
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			res := tiny(t, w, trace, nil)
			if !res.out.Correct || res.out.Attempted == 0 || res.out.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w, trace, res.out.Correct, res.out.Attempted, res.out.Failed, res.summary)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := sortedKeys(res.out.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v: metrics %v, want %v", w, trace, got, want)
			}
			if _, err := json.Marshal(res.out); err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
		}
	}
}

// A wrong answer must fail the run: off by one on an exact sum, or a group
// the true answer does not have.
func TestPerturbedAnswerFailsRun(t *testing.T) {
	offByOne := func(a *answer) {
		if len(a.rows) > 0 {
			a.rows[0].value++
		}
	}
	phantom := func(a *answer) {
		a.rows = append(a.rows, ansRow{g: gkey{a: 1}, value: 1})
	}
	for _, c := range []struct {
		workload string
		perturb  func(*answer)
	}{
		{"ssb-exact", offByOne},
		{"serve-mixed", offByOne},
		{"explore", phantom},
		{"ingest", phantom},
	} {
		if res := tiny(t, c.workload, false, c.perturb); res.out.Correct {
			t.Errorf("%s: perturbed answers passed the check\n%s", c.workload, res.summary)
		}
	}
}

// Passes of one input set that differ in their modes or rows scanned make
// the run incorrect.
func TestPassSigsMustRepeat(t *testing.T) {
	a := &phase{passes: map[string][]passSig{"explore#0": {{Queries: 220, Online: 6}}}}
	b := &phase{passes: map[string][]passSig{"explore#0": {{Queries: 220, Online: 7}}}}
	if _, err := passSigs([]*window{{p: a}, {p: a}}); err != nil {
		t.Fatal(err)
	}
	if _, err := passSigs([]*window{{p: a}, {p: b}}); err == nil {
		t.Fatal("differing passes were accepted")
	}
}

// A later run of the same seed is compared on the input sets both runs
// completed; a difference is flagged.
func TestRepeatCheck(t *testing.T) {
	o := options{workload: "explore", seed: 1, rows: 1000, out: t.TempDir()}
	first := map[string]passSig{"explore#0": {Queries: 220, Partial: 90}, "explore#1": {Queries: 220, Partial: 80}}
	if note := repeatCheck(o, first); note != "" {
		t.Fatal(note)
	}
	fewer := map[string]passSig{"explore#0": first["explore#0"]}
	if note := repeatCheck(o, fewer); note != "" {
		t.Fatalf("a run that completed fewer sets was flagged: %s", note)
	}
	changed := map[string]passSig{"explore#1": {Queries: 220, Partial: 81}}
	if note := repeatCheck(o, changed); !strings.Contains(note, "DIFFERS") {
		t.Fatalf("a changed pass was not flagged: %q", note)
	}
}

// A window with a minimum query count stays open past its deadline until it
// has timed that many queries, and no longer than its hard deadline.
func TestMinQueriesKeepsWindowOpen(t *testing.T) {
	p := newPhase(nil, time.Hour, nil, nil)
	p.deadline = time.Now().Add(-time.Second)
	p.minQueries = 2
	p.lat = []float64{1}
	if p.expired() {
		t.Fatal("window closed with fewer queries than its minimum")
	}
	p.lat = append(p.lat, 1)
	if !p.expired() {
		t.Fatal("window stayed open with its minimum reached")
	}
	p.lat = p.lat[:1]
	p.hardDeadline = p.deadline
	if !p.expired() {
		t.Fatal("window stayed open past its hard deadline")
	}
}

// The serve-mixed clients advance in rounds: neither starts a round before
// the other has finished the one before, and a client that leaves releases
// the other.
func TestRoundsLockStep(t *testing.T) {
	r := newRounds()
	var mu sync.Mutex
	var done [2]int
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.stop()
			for i := 0; i < 5+5*c; i++ {
				mu.Lock()
				done[c]++
				if d := done[c] - done[1-c]; d > 1 || d < -1 {
					t.Errorf("client %d started round %d while the other had done %d", c, done[c], done[1-c])
				}
				mu.Unlock()
				if !r.wait() {
					return
				}
			}
		}()
	}
	wg.Wait()
	if done[0] != 5 || done[1] > 6 {
		t.Fatalf("rounds done %v; want 5 and at most 6", done)
	}
}
