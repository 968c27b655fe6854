package obs_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/vgrid"
)

// observedSolve runs a small multisplitting solve on cluster1, with a
// recorder attached when attach is set, and returns every observability
// export, the end time and a fingerprint of the simulation itself: the
// per-process clocks and counters, the commit count and the bits of the
// Result.
func observedSolve(t *testing.T, workers int, async bool, attach bool) (exports [3][]byte, sim string, rec *obs.Recorder, end float64) {
	t.Helper()
	a := gen.DiagDominant(gen.DiagDominantOpts{N: 600, Band: 40, PerRow: 8, Margin: 0.05, Negative: true, Seed: 77})
	b, _ := gen.RHSForSolution(a)
	plt := cluster.Cluster1(4, -1)
	e := vgrid.NewEngine(plt.Platform)
	e.SetWorkers(workers)
	if attach {
		rec = &obs.Recorder{}
		e.Observe(rec)
	}
	pend, err := core.Launch(e, plt.Hosts, a, b, core.Options{Tol: 1e-8, Overlap: 10, Async: async})
	if err != nil {
		t.Fatal(err)
	}
	end, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	pend.Finish()
	res := pend.Result()
	if !res.Converged {
		t.Fatal("solve did not converge")
	}
	commits, _ := e.EventStats()
	sim = fmt.Sprintf("end=%v commits=%d\nstats=%+v\nresult=%+v", end, commits, e.Stats(), *res)
	if attach {
		var trace, mj, mc bytes.Buffer
		if err := obs.WriteTraceJSON(&trace, rec); err != nil {
			t.Fatal(err)
		}
		m := obs.ComputeMetrics(rec, end)
		if err := m.WriteJSON(&mj); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteCSV(&mc); err != nil {
			t.Fatal(err)
		}
		exports = [3][]byte{trace.Bytes(), mj.Bytes(), mc.Bytes()}
	}
	return exports, sim, rec, end
}

// TestObsDeterministicAcrossWorkers: with observability on, every export —
// the Perfetto trace JSON, the metrics JSON and the metrics CSV — must be
// byte-identical whether the compute segments run serially or on a pool of 4
// worker threads.
func TestObsDeterministicAcrossWorkers(t *testing.T) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			e1, sim1, _, _ := observedSolve(t, 1, async, true)
			e4, sim4, _, _ := observedSolve(t, 4, async, true)
			if sim1 != sim4 {
				t.Fatal("simulation diverges between worker counts")
			}
			labels := []string{"trace JSON", "metrics JSON", "metrics CSV"}
			for i := range e1 {
				if !bytes.Equal(e1[i], e4[i]) {
					t.Fatalf("%s differs between 1 and 4 workers", labels[i])
				}
			}
		})
	}
}

// TestObsCriticalPathSumsToMakespan: the profiler's compute+network+wait
// decomposition must cover the walk's makespan within 1% (it is exact by
// construction; the gate leaves float headroom).
func TestObsCriticalPathSumsToMakespan(t *testing.T) {
	_, _, rec, end := observedSolve(t, 1, false, true)
	cp := obs.CriticalPath(rec)
	if cp == nil {
		t.Fatal("no critical path from an instrumented run")
	}
	sum := cp.Compute + cp.Network + cp.Wait
	if math.Abs(sum-cp.Makespan) > 0.01*cp.Makespan {
		t.Fatalf("decomposition %g vs makespan %g off by more than 1%%", sum, cp.Makespan)
	}
	if cp.Makespan > end {
		t.Fatalf("critical-path makespan %g exceeds engine end %g", cp.Makespan, end)
	}
}

// TestObsOffLeavesSimulationUnchanged: attaching a recorder must not perturb
// the simulation — the end time, every process's clock and counters, the
// commit count and the bits of the Result are identical with and without
// observability.
func TestObsOffLeavesSimulationUnchanged(t *testing.T) {
	_, simOff, _, endOff := observedSolve(t, 1, false, false)
	_, simOn, _, endOn := observedSolve(t, 1, false, true)
	if simOff != simOn {
		t.Fatalf("observability changed the simulation:\noff: %.300s\non:  %.300s", simOff, simOn)
	}
	if endOff != endOn {
		t.Fatalf("observability changed the end time: %g vs %g", endOff, endOn)
	}
}
