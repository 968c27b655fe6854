package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point (or by timedDirect around a kernel call). Spans of one
// solve share its solve ID; parent is the span that made the call (0 for a
// pass root).
type span struct {
	id, parent, solve int32
	name              string
	start, end        int64 // ns since the tracer's origin
}

// tracer keeps every span of the traced passes in memory; write dumps them
// when the benchmark ends. A nil tracer records nothing, so untraced passes
// share the code path.
type tracer struct {
	origin time.Time
	nextID atomic.Int32
	mu     sync.Mutex // kernel spans arrive from concurrent pool workers
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// openSpan is a span whose end is not yet known.
type openSpan struct {
	tr         *tracer
	id, parent int32
	solve      int32
	name       string
	start      time.Time
}

// open starts a span and allocates its ID, so calls made inside it can name
// it as their parent before it ends.
func (t *tracer) open(name string, parent, solve int32) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{tr: t, id: t.nextID.Add(1), parent: parent, solve: solve, name: name, start: time.Now()}
}

func (s openSpan) close() {
	if s.tr != nil {
		s.tr.add(span{id: s.id, parent: s.parent, solve: s.solve, name: s.name,
			start: int64(s.start.Sub(s.tr.origin)), end: int64(time.Since(s.tr.origin))})
	}
}

// record adds a finished leaf span.
func (t *tracer) record(name string, parent, solve int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{id: t.nextID.Add(1), parent: parent, solve: solve, name: name,
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval that its child spans
// cover. Children that overlap each other (kernels on concurrent workers)
// are counted once, as their union.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int32][]span{}
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered := int64(0)
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.start, s.start), min(k.end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[s.name] += float64(s.end-s.start-covered) / 1e9
	}
	return self
}

// write dumps the spans as CSV, ordered by start time.
func (t *tracer) write(path string) error {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,solve,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.solve, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
