package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// modeRow is one option combination of the mode matrix: every combination
// the solver once rejected or silently ignored, either accepted now or still
// rejected by Options.validate.
type modeRow struct {
	name string
	o    Options
	// degrade slows one host for the whole solve, so the adaptive
	// controller has an imbalance to resplit on.
	degrade bool
	// wantResplit and wantFallback require the run to exercise the resplit
	// transition or the two-stage fallback to the exact band solve.
	wantResplit, wantFallback bool
	// wantErr is a substring of the validation error; empty means the row
	// must be accepted.
	wantErr string
}

// modeHosts is the host count of the mode-matrix platform.
const modeHosts = 6

var modeRows = []modeRow{
	{name: "multiband-balance", o: Options{BandsPerProc: 2, Balance: true}},
	{name: "multiband-maxstale", o: Options{BandsPerProc: 2, Async: true, MaxStale: 2}},
	{name: "multiband-residual", o: Options{BandsPerProc: 2, UseResidual: true}},
	{name: "multiband-gateway", o: Options{BandsPerProc: 2, Gateway: true, TopoCollectives: true}},
	{name: "multiband-gateway-async", o: Options{BandsPerProc: 2, Gateway: true, Async: true, MaxStale: 3}},
	{name: "multiband-twostage", o: Options{BandsPerProc: 2, TwoStage: TwoStage{InnerIters: 3, PrecondBand: 4}}},
	// Over-relaxed point sweeps diverge in the first inner stage, so every
	// band falls back to its exact solve before the iterate is polluted.
	{name: "multiband-twostage-fallback", o: Options{BandsPerProc: 2, Overlap: 4,
		TwoStage: TwoStage{InnerIters: 10, PrecondBand: 0, Omega: 1.99}}, wantFallback: true},
	{name: "multiband-faulttolerant", o: Options{BandsPerProc: 2, FaultTolerant: true, Async: true}},
	{name: "multiband-solverperrank", o: Options{BandsPerProc: 3,
		SolverPerRank: []splu.Direct{splu.BandSolver{}, nil, splu.DenseSolver{}, nil, nil, splu.BandSolver{}}}},
	{name: "multiband-obs", o: Options{BandsPerProc: 2, Overlap: 3}},
	{name: "adapt-twostage", o: Options{Adapt: true, AdaptInterval: 4, AdaptHysteresis: 0.05, Overlap: 4, TrackMemory: true,
		TwoStage: TwoStage{InnerIters: 4, PrecondBand: 4}}, degrade: true, wantResplit: true},
	{name: "adapt-multiband", o: Options{Adapt: true, BandsPerProc: 2},
		wantErr: "Adapt is incompatible with BandsPerProc > 1"},
	{name: "adapt-async", o: Options{Adapt: true, Async: true},
		wantErr: "Adapt is incompatible with plain Async"},
}

// modeRun is the observable outcome of one mode-matrix solve.
type modeRun struct {
	res         *Result
	print       string // obs export, virtual time and commit count
	msgs, bytes int64  // summed over the engine's solver processes
}

// modeSystem is the system every row solves: banded and diagonally
// dominant, so every exchange policy contracts.
var modeSystem = gen.DiagDominantOpts{N: 720, Band: 24, PerRow: 8, Margin: 0.05, Seed: 12}

// runMode runs one row on a 6-host, 3-cluster synthetic grid with the given
// worker and lane counts (lanes 0: one lane per cluster).
func runMode(t *testing.T, row modeRow, workers, lanes int) (*modeRun, error) {
	t.Helper()
	return runGrid(t, modeHosts, 3, modeSystem, row, workers, lanes)
}

// runGrid solves the generated system sys with the row's options on a
// synthetic grid of the given host and cluster counts.
func runGrid(t *testing.T, hosts, clusters int, sys gen.DiagDominantOpts, row modeRow, workers, lanes int) (*modeRun, error) {
	t.Helper()
	a := gen.DiagDominant(sys)
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Synthetic(hosts, clusters, 0.3, 5)
	e := vgrid.NewEngine(plt.Platform)
	e.SetWorkers(workers)
	e.SetLanes(lanes)
	rec := observe(e)
	if row.degrade {
		e.SetFaultPlan(vgrid.NewFaultPlan(7).DegradeHost(plt.Hosts[4].Name, 0.0005, math.Inf(1), 8))
	}
	o := row.o
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	pend, err := Launch(e, plt.Hosts, a, b, o)
	if err != nil {
		return nil, err
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	run := &modeRun{res: pend.Result(), print: runPrint(t, e, rec, end)}
	for _, pr := range pend.procs {
		run.msgs += pr.MsgsSent
		run.bytes += pr.BytesSent
	}
	return run, nil
}

// TestModeMatrix: every option combination the solver once rejected or
// silently ignored either composes — converging to the sequential
// multisplitting fixed point with byte-identical traces and bitwise-equal
// results for 1 vs 4 workers and 1 lane vs a lane per cluster — or is
// rejected by Options.validate with an error naming the pair.
func TestModeMatrix(t *testing.T) {
	a := gen.DiagDominant(modeSystem)
	b, _ := gen.RHSForSolution(a)
	d, err := NewDecomposition(a.Rows, modeHosts, 0, WeightOwner)
	if err != nil {
		t.Fatal(err)
	}
	var cnt vec.Counter
	seq, err := SolveSequential(a, b, d, &splu.SparseLU{}, 1e-12, 100000, &cnt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range modeRows {
		t.Run(row.name, func(t *testing.T) {
			base, err := runMode(t, row, 1, 1)
			if row.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), row.wantErr) {
					t.Fatalf("err = %v, want %q", err, row.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			res := base.res
			if !res.Converged {
				t.Fatalf("not converged after %d iterations", res.Iterations)
			}
			for i := range res.X {
				if math.Abs(res.X[i]-seq.X[i]) > 1e-7*(1+math.Abs(seq.X[i])) {
					t.Fatalf("x[%d] = %v, sequential %v", i, res.X[i], seq.X[i])
				}
			}
			if row.wantResplit && res.Resplits == 0 {
				t.Fatal("no resplit applied")
			}
			if row.wantFallback && res.TwoStageFallbacks == 0 {
				t.Fatal("no two-stage fallback")
			}
			if base.msgs != res.MsgsSent || base.bytes != res.BytesSent {
				t.Fatalf("result traffic %d msgs / %d B, processes sent %d / %d",
					res.MsgsSent, res.BytesSent, base.msgs, base.bytes)
			}
			want := fmt.Sprintf("%+v", *res)
			for _, cfg := range []struct{ workers, lanes int }{{4, 1}, {4, 0}} {
				got, err := runMode(t, row, cfg.workers, cfg.lanes)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("workers=%d lanes=%d", cfg.workers, cfg.lanes)
				if got.print != base.print {
					t.Fatalf("%s: obs export differs from the serial single-lane run", tag)
				}
				if floatsSHA(got.res.X) != floatsSHA(res.X) || fmt.Sprintf("%+v", *got.res) != want {
					t.Fatalf("%s: result differs", tag)
				}
			}
		})
	}
}

// TestResultFoldAcrossLanes: ranks on different scheduler lanes finish
// concurrently, so each writes only its own record and Pending.Result folds
// them in rank order. Under the race detector this pins that no rank writes
// shared Result fields (64 hosts in 8 lanes finish concurrently often
// enough to expose it); the traffic totals must equal the processes' own
// counters, and the whole Result must be bitwise equal for one lane and a
// lane per cluster.
func TestResultFoldAcrossLanes(t *testing.T) {
	sys := gen.DiagDominantOpts{N: 4096, Band: 24, PerRow: 8, Margin: 0.05, Seed: 12}
	row := modeRow{o: Options{Balance: true, Overlap: 2,
		TwoStage: TwoStage{InnerIters: 3, PrecondBand: 4}}}
	single, err := runGrid(t, 64, 8, sys, row, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := runGrid(t, 64, 8, sys, row, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []*modeRun{single, sharded} {
		if run.res.MsgsSent != run.msgs || run.res.BytesSent != run.bytes {
			t.Fatalf("result traffic %d msgs / %d B, processes sent %d / %d",
				run.res.MsgsSent, run.res.BytesSent, run.msgs, run.bytes)
		}
	}
	if got, want := fmt.Sprintf("%+v", *sharded.res), fmt.Sprintf("%+v", *single.res); got != want {
		t.Fatalf("sharded result differs from single lane:\n got %s\nwant %s", got, want)
	}
}
