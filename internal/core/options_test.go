package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/splu"
	"repro/internal/vec"
)

func TestAsyncBoundedStaleness(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Seed: 60})
	b, xtrue := gen.RHSForSolution(a)
	// On the two-site platform, unbounded async ranks run far ahead of the
	// cross-site channel; a staleness bound of 2 forces near-lockstep.
	pl, hosts := twoSitePlatform(3, 3)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, Async: true, MaxStale: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
	// With the bound, per-rank iteration counts stay close to each other:
	// nobody can spin hundreds of iterations on stale data.
	lo, hi := res.IterationsPerRank[0], res.IterationsPerRank[0]
	for _, it := range res.IterationsPerRank {
		if it < lo {
			lo = it
		}
		if it > hi {
			hi = it
		}
	}
	if hi > 4*lo {
		t.Fatalf("staleness bound violated in spirit: iterations %v", res.IterationsPerRank)
	}

	// Unbounded async on the same platform shows a much wider spread.
	pl2, hosts2 := twoSitePlatform(3, 3)
	free, err := Solve(pl2, hosts2, a, b, Options{Tol: 1e-9, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	loF, hiF := free.IterationsPerRank[0], free.IterationsPerRank[0]
	for _, it := range free.IterationsPerRank {
		if it < loF {
			loF = it
		}
		if it > hiF {
			hiF = it
		}
	}
	if hi-lo >= hiF-loF {
		t.Fatalf("bound did not narrow the spread: bounded %d..%d vs free %d..%d", lo, hi, loF, hiF)
	}
}

func TestSyncResidualStopping(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Seed: 61})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-8, UseResidual: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)
	// Residual-based stopping really enforces the residual, not just the
	// step size.
	if r := residualInf(a, res.X, b); r > 1e-8*1.01 {
		t.Fatalf("final residual %v above the requested tolerance", r)
	}
}

func TestTreeCollectivesSolve(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 800, Seed: 62})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(8, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, TreeCollectives: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
	// Same iterate path as the flat collectives.
	pl2, hosts2 := lanPlatform(8, 0)
	flat, err := Solve(pl2, hosts2, a, b, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != flat.Iterations {
		t.Fatalf("tree %d iterations vs flat %d", res.Iterations, flat.Iterations)
	}
}

func TestAsyncResidualStopping(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 500, Seed: 61})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-8, Async: true, UseResidual: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

// TestBoundedStalenessSmallSystem: on a small system where the ranks wait
// in most iterations, tight staleness bounds must still detect convergence.
// A waiting rank reports the local state it last evaluated to the detector;
// reporting "not converged" on every poll withdrew the evidence forever.
func TestBoundedStalenessSmallSystem(t *testing.T) {
	a := gen.Tridiag(40, -1, 4, -1)
	b := make([]float64, 40)
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	d, err := NewDecomposition(a.Rows, 2, 0, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	var c vec.Counter
	ref, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-12, 10000, &c)
	if err != nil {
		t.Fatal(err)
	}
	for maxStale := 1; maxStale <= 3; maxStale++ {
		pl, hosts := lanPlatform(2, 0)
		res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, Async: true, MaxStale: maxStale, MaxIter: 20000})
		if err != nil {
			t.Fatalf("MaxStale %d: %v", maxStale, err)
		}
		checkClose(t, res.X, ref.X, 1e-8, fmt.Sprintf("MaxStale %d", maxStale))
	}
}
