package main

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/splu"
)

// TestTimedDirectIsTransparent pins that the traced run measures the same
// program: every multisplitting solve of every workload, at test size,
// gives bitwise-equal X, Time, Iterations and MsgsSent with the timing
// wrapper plugged in as with the default solver.
func TestTimedDirectIsTransparent(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 3, testSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.jobs {
			j := &w.jobs[i]
			if j.dslu {
				continue
			}
			plain := solveOnce(t, w, i, nil)
			ks := &kernelStats{}
			timed := solveOnce(t, w, i, &timedDirect{inner: &splu.SparseLU{}, stats: ks, tr: newTracer(), solve: 1})
			if ks.factorCalls.Load() == 0 || ks.solveCalls.Load() == 0 {
				t.Errorf("%s: wrapper saw %d factorizations and %d solves", j.label, ks.factorCalls.Load(), ks.solveCalls.Load())
			}
			if plain.Time != timed.Time || plain.Iterations != timed.Iterations || plain.MsgsSent != timed.MsgsSent {
				t.Errorf("%s: wrapped solve differs: time %v/%v, iterations %d/%d, messages %d/%d", j.label,
					plain.Time, timed.Time, plain.Iterations, timed.Iterations, plain.MsgsSent, timed.MsgsSent)
			}
			if len(plain.X) != len(timed.X) {
				t.Fatalf("%s: solution lengths %d and %d", j.label, len(plain.X), len(timed.X))
			}
			for k := range plain.X {
				if math.Float64bits(plain.X[k]) != math.Float64bits(timed.X[k]) {
					t.Errorf("%s: x[%d] differs: %v vs %v", j.label, k, plain.X[k], timed.X[k])
					break
				}
			}
		}
	}
}

func solveOnce(t *testing.T, w *workload, i int, solver splu.Direct) *core.Result {
	t.Helper()
	j := &w.jobs[i]
	in := w.build()
	e, _ := j.engine(in.plats[i].Platform, in.faults[i])
	opts := j.opts
	opts.Solver = solver
	pend, err := core.Launch(e, in.plats[i].Hosts, j.a, j.b, opts)
	if err != nil {
		t.Fatalf("%s: %v", j.label, err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("%s: %v", j.label, err)
	}
	pend.Finish()
	res := pend.Result()
	if !res.Converged {
		t.Fatalf("%s: did not converge", j.label)
	}
	return res
}

// TestPassesAtTestSize runs each workload's pass untraced and traced at
// test size: every solve passes its checks, the traced pass reproduces the
// untraced fingerprint, and the obs exports are well-formed.
func TestPassesAtTestSize(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 5, testSize)
		if err != nil {
			t.Fatal(err)
		}
		var sk sinks
		plain := runPass(w, w.build(), nil, &sk, 1)
		if err := validateExports(w, &sk); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		tr := newTracer()
		traced := runPass(w, w.build(), tr, &sk, 100)
		for _, p := range []passResult{plain, traced} {
			for _, f := range p.failures {
				t.Errorf("%s: %s", name, f)
			}
		}
		if plain.lay.fingerprint() != traced.lay.fingerprint() {
			t.Errorf("%s: traced pass %+v differs from untraced %+v", name, traced.lay.fingerprint(), plain.lay.fingerprint())
		}
		if len(tr.spans) == 0 || traced.kern.solveCalls.Load() == 0 {
			t.Errorf("%s: traced pass recorded %d spans and %d kernel solves", name, len(tr.spans), traced.kern.solveCalls.Load())
		}
	}
}

// TestSelfTimeCountsOverlappingChildrenOnce pins the self-time rule: a
// span's duration minus the union of its children's intervals, clipped to
// the span.
func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	tr := &tracer{spans: []span{
		{id: 1, name: "vgrid.run", start: 0, end: 100},
		{id: 2, parent: 1, name: "splu.solve", start: 10, end: 40},
		{id: 3, parent: 1, name: "splu.solve", start: 30, end: 50},   // overlaps id 2
		{id: 4, parent: 1, name: "splu.factor", start: 90, end: 120}, // runs past the parent
	}}
	self := tr.selfTimes()
	if got, want := self["vgrid.run"], 50e-9; math.Abs(got-want) > 1e-18 {
		t.Errorf("vgrid.run self = %g, want %g", got, want)
	}
	if got, want := self["splu.solve"], 50e-9; math.Abs(got-want) > 1e-18 {
		t.Errorf("splu.solve self = %g, want %g", got, want)
	}
}
