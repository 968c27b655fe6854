package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/splu"
	"repro/internal/vec"
)

func TestMultibandSyncMatchesSequential(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 70})
	b, xtrue := gen.RHSForSolution(a)
	// 3 ranks × 2 bands each must iterate exactly like the sequential
	// 6-band fixed point.
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, BandsPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)
	d, _ := NewDecomposition(a.Rows, 6, 0, WeightOwner)
	var c vec.Counter
	seq, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-10, 100000, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != seq.Iterations {
		t.Fatalf("multiband %d iterations, sequential 6-band %d", res.Iterations, seq.Iterations)
	}
	for i := range res.X {
		if math.Abs(res.X[i]-seq.X[i]) > 1e-12*(1+math.Abs(seq.X[i])) {
			t.Fatalf("solutions differ at %d", i)
		}
	}
}

func TestMultibandWithOverlap(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 360, Margin: 0.1, Seed: 71})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 3, Overlap: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestMultibandAsync(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 400, Seed: 72})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(4, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
	if !res.Converged {
		t.Fatal("not converged")
	}
}

func TestMultibandAsyncDistant(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Seed: 73})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := twoSitePlatform(2, 2)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 2, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

func TestMultibandAverageWeights(t *testing.T) {
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 300, Seed: 74})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(3, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-9, BandsPerProc: 2, Overlap: 10, Scheme: WeightAverage})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-6)
}

// TestMultibandIncompatibleOptions: BandsPerProc > 1 is rejected, with an
// error naming the pair, only where it still does not compose — with Adapt
// (the controller observes per rank but would propose per band) and in
// persistent sessions. Balance, bounded staleness and the residual criterion
// pass validation; TestModeMatrix runs them to convergence.
func TestMultibandIncompatibleOptions(t *testing.T) {
	a := gen.Tridiag(40, -1, 4, -1)
	b := make([]float64, 40)
	pl, hosts := lanPlatform(2, 0)
	_, err := Solve(pl, hosts, a, b, Options{BandsPerProc: 2, Adapt: true})
	if err == nil || !strings.Contains(err.Error(), "Adapt is incompatible with BandsPerProc > 1") {
		t.Fatalf("adapt: err = %v", err)
	}
	_, err = NewSession(a, Options{BandsPerProc: 2})
	if err == nil || !strings.Contains(err.Error(), "sessions do not support BandsPerProc > 1") {
		t.Fatalf("session: err = %v", err)
	}
	for _, opt := range []Options{
		{BandsPerProc: 2, Balance: true},
		{BandsPerProc: 2, MaxStale: 3, Async: true},
		{BandsPerProc: 2, UseResidual: true},
	} {
		opt = opt.withDefaults()
		if err := opt.validate(len(hosts), false); err != nil {
			t.Fatalf("%+v rejected: %v", opt, err)
		}
	}
}

func TestMultibandSingleRankManyBands(t *testing.T) {
	// All bands on one rank: fully local exchange.
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 200, Seed: 75})
	b, xtrue := gen.RHSForSolution(a)
	pl, hosts := lanPlatform(1, 0)
	res, err := Solve(pl, hosts, a, b, Options{Tol: 1e-10, BandsPerProc: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, res, xtrue, 1e-7)
	if res.MsgsSent > 5 {
		// Only the final gather (none: rank 0 keeps it) plus collectives.
		t.Logf("note: %d messages on a single rank", res.MsgsSent)
	}
}
