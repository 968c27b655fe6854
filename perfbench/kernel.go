package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

// kernelStats accumulates the splu layer's work as seen through timedDirect.
// Solves run concurrently on the engine's pool workers, so every field is
// atomic. Busy time is summed over worker threads; bytes are computed from
// Factorization.Bytes (the factor storage a solve streams through once), not
// measured.
type kernelStats struct {
	factorCalls, factorNs, factorBytes atomic.Int64
	solveCalls, solveNs, solveBytes    atomic.Int64
	factorFlops, solveFlops            atomicFloat
}

// atomicFloat is a float64 sum safe for concurrent Add.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// timedDirect is a splu.Direct that times the wrapped method's Factor and
// the returned Factorization's Solve calls. It carries the ID of the solve
// it was created for and the span its kernels nest under, so kernel spans
// join their solve in the trace.
type timedDirect struct {
	inner  splu.Direct
	stats  *kernelStats
	tr     *tracer
	solve  int32
	parent int32
}

func (d *timedDirect) Name() string { return d.inner.Name() }

func (d *timedDirect) Factor(a *sparse.CSR, c *vec.Counter) (splu.Factorization, error) {
	start := time.Now()
	f, err := d.inner.Factor(a, c)
	end := time.Now()
	d.stats.factorCalls.Add(1)
	d.stats.factorNs.Add(int64(end.Sub(start)))
	d.tr.record("splu.factor", d.parent, d.solve, start, end)
	if err != nil {
		return nil, err
	}
	d.stats.factorFlops.Add(f.FactorFlops())
	d.stats.factorBytes.Add(f.Bytes())
	return &timedFact{inner: f, d: d, solveFlops: f.SolveFlops(), bytes: f.Bytes()}, nil
}

// timedFact forwards to the wrapped factorization and times each Solve.
type timedFact struct {
	inner      splu.Factorization
	d          *timedDirect
	solveFlops float64
	bytes      int64
}

func (f *timedFact) Solve(x, b []float64, c *vec.Counter) {
	start := time.Now()
	f.inner.Solve(x, b, c)
	end := time.Now()
	st := f.d.stats
	st.solveCalls.Add(1)
	st.solveNs.Add(int64(end.Sub(start)))
	st.solveFlops.Add(f.solveFlops)
	st.solveBytes.Add(f.bytes)
	f.d.tr.record("splu.solve", f.d.parent, f.d.solve, start, end)
}

func (f *timedFact) FactorFlops() float64 { return f.inner.FactorFlops() }
func (f *timedFact) SolveFlops() float64  { return f.inner.SolveFlops() }
func (f *timedFact) Bytes() int64         { return f.inner.Bytes() }
