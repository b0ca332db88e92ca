package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"laqy"
)

// span is one timed call. Spans the benchmark records around its own calls
// into the program carry a start; spans copied from a Result.Trace carry
// only a duration, because the public TraceSpan has no start time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns,omitempty"`
	DurNS   int64  `json:"dur_ns"`
	Program bool   `json:"program,omitempty"`
}

// spanLog keeps a traced run's spans in memory until write. A nil log
// records nothing, so untimed and untraced paths call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[int]time.Time
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), open: map[int]time.Time{}}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNS: now.Sub(l.t0).Nanoseconds()})
	l.open[id] = now
	return id
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].DurNS = now.Sub(l.open[id]).Nanoseconds()
	delete(l.open, id)
}

// addProgram copies a program span tree under parent.
func (l *spanLog) addProgram(s *laqy.TraceSpan, parent int) {
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: s.Name, DurNS: s.Duration.Nanoseconds(), Program: true})
	l.mu.Unlock()
	for _, c := range s.Children {
		l.addProgram(c, id)
	}
}

// write saves the spans as a JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durs accumulates durations of one kind of span.
type durs struct {
	n   int
	sum time.Duration
}

func (d *durs) add(v time.Duration) { d.n++; d.sum += v }

// mean returns the mean duration in unit (0 when empty).
func (d durs) mean(unit time.Duration) float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / float64(d.n) / float64(unit)
}

// harvest folds one query's program trace into per-span-name durations and
// the root's self time. Only the root's children run one after another,
// so self time is exact there; spans with parallel children (segments,
// pipeline) contribute their inclusive time.
func harvest(t *laqy.QueryTrace, byName map[string]*durs, rootSelf *durs) {
	root := t.Root
	self := root.Duration
	for _, c := range root.Children {
		self -= c.Duration
	}
	rootSelf.add(self)
	var walk func(s *laqy.TraceSpan)
	walk = func(s *laqy.TraceSpan) {
		acc := byName[s.Name]
		if acc == nil {
			acc = &durs{}
			byName[s.Name] = acc
		}
		acc.add(s.Duration)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, c := range root.Children {
		walk(c)
	}
}
