package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// resolveLan runs one Resolve of the session on a fresh n-host LAN engine
// (engines are one-shot, so every Resolve gets its own).
func resolveLan(s *Session, n int, newVals, b []float64) (*Result, error) {
	pl, hosts := lanPlatform(n, 0)
	return s.Resolve(vgrid.NewEngine(pl), hosts, newVals, b)
}

// perturbedVals returns a sequence of value arrays over m's pattern standing
// in for Newton-step Jacobians: same pattern, drifting values, the diagonal
// growing per step as with a monotone nonlinearity (pivots stay healthy).
func perturbedVals(m *sparse.CSR, steps int) [][]float64 {
	vals := make([][]float64, steps)
	for s := range vals {
		v := make([]float64, m.NNZ())
		copy(v, m.Val)
		for i := 0; i < m.Rows; i++ {
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if m.ColInd[p] == i {
					v[p] += 0.04 * float64(s+1) * math.Abs(v[p])
				} else {
					v[p] *= 1 + 0.001*float64(s+1)*float64(p%5-2)
				}
			}
		}
		vals[s] = v
	}
	return vals
}

func TestSeqSessionFirstResolveMatchesSolveSequential(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Band: 30, PerRow: 6, Margin: 0.1, Negative: true, Seed: 41})
	b, _ := gen.RHSForSolution(a)
	d, err := NewDecomposition(a.Rows, 4, 8, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 vec.Counter
	ref, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 10000, &c1)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSeqSession(a, d, &splu.SparseLU{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Resolve(nil, b, 1e-10, 10000, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != ref.Iterations {
		t.Fatalf("iterations: session %d, SolveSequential %d", got.Iterations, ref.Iterations)
	}
	for i := range ref.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("x[%d] differs bitwise: %v vs %v", i, got.X[i], ref.X[i])
		}
	}
	if got.FactorFlops <= 0 || got.FactorFlops != ref.FactorFlops {
		t.Fatalf("FactorFlops: session %v, SolveSequential %v", got.FactorFlops, ref.FactorFlops)
	}
}

// TestSeqSessionMultiResolve: each refactorized Resolve must agree with a
// fresh factor-from-scratch solve of the same values, and the amortized
// session must spend under half the factorization work of the per-step
// Factor baseline.
func TestSeqSessionMultiResolve(t *testing.T) {
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Band: 8, PerRow: 3, Margin: 0.1, Negative: true, Seed: 2024})
	b, _ := gen.RHSForSolution(m)
	vals := perturbedVals(m, 6)
	d, err := NewDecomposition(m.Rows, 4, 8, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSeqSession(m, d, &splu.SparseLU{PivotTol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSeqSession(m, d, &splu.SparseLU{PivotTol: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	base.NoRefactor = true
	var cs, cb vec.Counter
	first, err := sess.Resolve(nil, b, 1e-10, 10000, &cs)
	if err != nil {
		t.Fatal(err)
	}
	sessFlops := first.FactorFlops
	first, err = base.Resolve(nil, b, 1e-10, 10000, &cb)
	if err != nil {
		t.Fatal(err)
	}
	baseFlops := first.FactorFlops
	for s, v := range vals {
		got, err := sess.Resolve(v, b, 1e-10, 10000, &cs)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		sessFlops += got.FactorFlops
		bg, err := base.Resolve(v, b, 1e-10, 10000, &cb)
		if err != nil {
			t.Fatalf("step %d baseline: %v", s, err)
		}
		baseFlops += bg.FactorFlops
		// Fresh factor of the same values, no session.
		fresh := m.Clone()
		copy(fresh.Val, v)
		var cf vec.Counter
		ref, err := SolveSequential(fresh, b, d, &splu.SparseLU{PivotTol: 0.1}, 1e-10, 10000, &cf)
		if err != nil {
			t.Fatalf("step %d fresh: %v", s, err)
		}
		if got.Iterations != ref.Iterations {
			t.Fatalf("step %d iterations: session %d, fresh %d", s, got.Iterations, ref.Iterations)
		}
		for i := range ref.X {
			if math.Abs(got.X[i]-ref.X[i]) > 1e-9*(1+math.Abs(ref.X[i])) {
				t.Fatalf("step %d x[%d]: session %v, fresh %v", s, i, got.X[i], ref.X[i])
			}
			if math.Abs(bg.X[i]-ref.X[i]) > 1e-9*(1+math.Abs(ref.X[i])) {
				t.Fatalf("step %d x[%d]: baseline %v, fresh %v", s, i, bg.X[i], ref.X[i])
			}
		}
	}
	if sess.Fallbacks() != 0 {
		t.Fatalf("unexpected pivot fallbacks: %d", sess.Fallbacks())
	}
	if 2*sessFlops > baseFlops {
		t.Fatalf("refactorization saved less than 2x: session %v, baseline %v", sessFlops, baseFlops)
	}
}

// TestSeqSessionResolveAllocationFree: a steady-state Resolve (values
// refreshed, refactorization, iteration sweep) performs no allocation.
func TestSeqSessionResolveAllocationFree(t *testing.T) {
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Band: 30, PerRow: 6, Margin: 0.1, Negative: true, Seed: 99})
	b, _ := gen.RHSForSolution(m)
	d, err := NewDecomposition(m.Rows, 4, 8, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSeqSession(m, d, &splu.SparseLU{})
	if err != nil {
		t.Fatal(err)
	}
	var c vec.Counter
	if _, err := sess.Resolve(nil, b, 1e-10, 10000, &c); err != nil {
		t.Fatal(err)
	}
	v := make([]float64, m.NNZ())
	copy(v, m.Val)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := sess.Resolve(v, b, 1e-10, 10000, &c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Resolve allocates: %v allocs/op", allocs)
	}
}

// twoLANs is a heterogeneous two-cluster grid whose clusters are joined by
// per-cluster uplinks and a fast backbone. The host NICs carry only
// intra-cluster traffic, so the platform shards into one scheduler lane per
// cluster, and the short backbone keeps asynchronous runs brief.
func twoLANs(nA, nB int) (*vgrid.Platform, []*vgrid.Host) {
	pl := vgrid.NewPlatform()
	hosts := make([]*vgrid.Host, nA+nB)
	nics := make([]*vgrid.Link, nA+nB)
	for i := range hosts {
		hosts[i] = pl.AddHost(fmt.Sprintf("h%d", i), 1e9*(1+0.1*float64(i%3)), 0)
		nics[i] = vgrid.NewLink(fmt.Sprintf("nic%d", i), 25e-6, 1.25e7)
	}
	up := []*vgrid.Link{vgrid.NewLink("upA", 25e-6, 1.25e8), vgrid.NewLink("upB", 25e-6, 1.25e8)}
	backbone := vgrid.NewLink("backbone", 1e-4, 1.25e8)
	site := func(i int) int {
		if i < nA {
			return 0
		}
		return 1
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			if site(i) == site(j) {
				pl.SetRoute(hosts[i], hosts[j], nics[i], nics[j])
			} else {
				pl.SetRoute(hosts[i], hosts[j], up[site(i)], backbone, up[site(j)])
			}
		}
	}
	pl.AddCluster("siteA", hosts[:nA]...)
	pl.AddCluster("siteB", hosts[nA:]...)
	return pl, hosts
}

// runSessionOnGrid drives a 3-step resolve sequence (factor, then two
// refactorized solves) on twoLANs with the given worker and lane counts
// (lanes 0: one lane per cluster), every engine feeding one recorder. It
// returns the recorder's Perfetto export and the three Results.
func runSessionOnGrid(t *testing.T, workers, lanes int, o Options) (string, []*Result) {
	t.Helper()
	m := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Band: 50, PerRow: 8, Margin: 0.08, Negative: true, Seed: 3030})
	b, _ := gen.RHSForSolution(m)
	sess, err := NewSession(m, o)
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	var results []*Result
	for _, v := range append([][]float64{nil}, perturbedVals(m, 2)...) {
		pl, hosts := twoLANs(3, 3)
		e := vgrid.NewEngine(pl)
		e.SetWorkers(workers)
		e.SetLanes(lanes)
		e.Observe(rec)
		r, err := sess.Resolve(e, hosts, v, b)
		if err != nil {
			t.Fatal(err)
		}
		if lanes == 0 && e.Lanes() != 2 {
			t.Fatalf("the grid ran on %d lanes, want one per cluster", e.Lanes())
		}
		results = append(results, r)
	}
	return tracePrint(t, rec), results
}

// TestSessionWorkersDeterministic: a factor + refactor + refactor resolve
// sequence must give byte-identical obs exports, bitwise-identical
// solutions and identical Result fields for 1 vs 4 workers and for one lane
// vs a lane per cluster, in both sync and async mode.
func TestSessionWorkersDeterministic(t *testing.T) {
	cases := []struct {
		name string
		o    Options
	}{
		{"sync", Options{Tol: 1e-8, Overlap: 10}},
		{"async", Options{Tol: 1e-8, Overlap: 10, Async: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refTrace, ref := runSessionOnGrid(t, 1, 1, tc.o)
			for k, r := range ref {
				if !r.Converged {
					t.Fatalf("resolve %d did not converge", k)
				}
				if r.FactorFlops <= 0 {
					t.Fatalf("resolve %d reports no factor flops", k)
				}
			}
			for _, v := range []struct{ workers, lanes int }{{4, 1}, {1, 0}, {4, 0}} {
				trace, got := runSessionOnGrid(t, v.workers, v.lanes, tc.o)
				if trace != refTrace {
					t.Fatalf("workers %d lanes %d: obs export differs", v.workers, v.lanes)
				}
				for k := range ref {
					for i := range ref[k].X {
						if math.Float64bits(got[k].X[i]) != math.Float64bits(ref[k].X[i]) {
							t.Fatalf("workers %d lanes %d: resolve %d x[%d] differs bitwise", v.workers, v.lanes, k, i)
						}
					}
					if g, w := fmt.Sprintf("%+v", *got[k]), fmt.Sprintf("%+v", *ref[k]); g != w {
						t.Fatalf("workers %d lanes %d: resolve %d result differs:\n got %s\nwant %s", v.workers, v.lanes, k, g, w)
					}
				}
			}
		})
	}
}

// TestSessionFirstResolveMatchesSolve: a session's first Resolve runs the
// same setup and rank program as the one-shot Solve — identical solution,
// iteration counts and virtual time — including a Balance split sized by the
// host speeds of a heterogeneous grid.
func TestSessionFirstResolveMatchesSolve(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Band: 40, PerRow: 8, Margin: 0.1, Negative: true, Seed: 55})
	b, _ := gen.RHSForSolution(a)
	heterogeneous := func() (*vgrid.Platform, []*vgrid.Host) {
		plt := cluster.Synthetic(6, 2, 0.5, 3)
		return plt.Platform, plt.Hosts
	}
	for _, tc := range []struct {
		name     string
		platform func() (*vgrid.Platform, []*vgrid.Host)
		o        Options
	}{
		{"lan", func() (*vgrid.Platform, []*vgrid.Host) { return lanPlatform(4, 0) }, Options{Tol: 1e-8, Overlap: 8}},
		{"balance", heterogeneous, Options{Tol: 1e-8, Overlap: 8, Balance: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl, hosts := tc.platform()
			ref, err := Solve(pl, hosts, a, b, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(a, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			pl, hosts = tc.platform()
			got, err := sess.Resolve(vgrid.NewEngine(pl), hosts, nil, b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != ref.Iterations || got.Time != ref.Time {
				t.Fatalf("session %d iterations @ %v s, Solve %d @ %v s", got.Iterations, got.Time, ref.Iterations, ref.Time)
			}
			for i := range ref.X {
				if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
					t.Fatalf("x[%d] differs bitwise: %v vs %v", i, got.X[i], ref.X[i])
				}
			}
		})
	}
}

// TestSessionRefactorResolveCheaper: after the first Resolve, refactorized
// steps must report a smaller factorization time and charge fewer flops than
// the NoRefactor baseline session. Every Resolve's Result.FactorFlops is the
// arithmetic of that Resolve's own factor or refactor spans.
func TestSessionRefactorResolveCheaper(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Band: 50, PerRow: 8, Margin: 0.1, Negative: true, Seed: 77})
	b, _ := gen.RHSForSolution(a)
	o := Options{Tol: 1e-8, Overlap: 8}
	v := perturbedVals(a, 1)[0]

	run := func(noRefactor bool) (second *Result, ff float64) {
		sess, err := NewSession(a, o)
		if err != nil {
			t.Fatal(err)
		}
		sess.NoRefactor = noRefactor
		for _, vals := range [][]float64{nil, v} {
			pl, hosts := lanPlatform(4, 0)
			e := vgrid.NewEngine(pl)
			rec := observe(e)
			if second, err = sess.Resolve(e, hosts, vals, b); err != nil {
				t.Fatal(err)
			}
			spans := 0.0
			for _, sp := range rec.Spans() {
				if sp.Cat == obs.CatFact || sp.Cat == obs.CatRefact {
					spans += sp.Flops
				}
			}
			if second.FactorFlops <= 0 || second.FactorFlops != spans {
				t.Fatalf("noRefactor=%v: Result.FactorFlops %v, factor/refactor spans %v",
					noRefactor, second.FactorFlops, spans)
			}
			ff += second.FactorFlops
		}
		return second, ff
	}
	fast, ffFast := run(false)
	slow, ffSlow := run(true)
	if ffFast >= ffSlow {
		t.Fatalf("refactor session flops %v >= baseline %v", ffFast, ffSlow)
	}
	if fast.FactorTime >= slow.FactorTime {
		t.Fatalf("refactor step FactorTime %v >= full factor %v", fast.FactorTime, slow.FactorTime)
	}
	for i := range fast.X {
		if math.Abs(fast.X[i]-slow.X[i]) > 1e-9*(1+math.Abs(slow.X[i])) {
			t.Fatalf("x[%d]: refactor %v, baseline %v", i, fast.X[i], slow.X[i])
		}
	}
}

// TestSessionOptionRejections: options that rewrite the matrix or multiplex
// bands are incompatible with persistent sessions.
func TestSessionOptionRejections(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 100, Seed: 1})
	cases := []struct {
		name string
		o    Options
	}{
		{"bands-per-proc", Options{BandsPerProc: 2}},
		{"equilibrate", Options{Equilibrate: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewSession(a, tc.o); err == nil {
				t.Fatal("expected rejection")
			}
		})
	}
}

// TestSessionHostCountPinned: the decomposition is fixed by the first
// Resolve, so a later Resolve on a different host count is an error.
func TestSessionHostCountPinned(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 5})
	b, _ := gen.RHSForSolution(a)
	sess, err := NewSession(a, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resolveLan(sess, 3, nil, b); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveLan(sess, 4, nil, b); err == nil {
		t.Fatal("expected host-count mismatch error")
	}
}
