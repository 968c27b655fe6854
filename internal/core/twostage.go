// Two-stage multisplitting: the exact inner band solve replaced by a bounded
// number of preconditioned relaxation sweeps (Brown/Bull/Bethune, arXiv
// 2009.12638), with a per-band, per-outer-iteration inner count schedule
// (Liu/Li nonstationary multisplitting, arXiv 1803.02541). The band LU that
// the stationary method uses as its exact solver shrinks to a narrow-band
// preconditioner M: factorization memory stays O(n·width) while the exact
// LU's fill grows with the band, which is what opens problem sizes where
// dslu and the stationary method report "nem". Everything downstream of the
// iterate — ship, exchange policies, fault tolerance, gateway aggregation,
// sharded lanes — is untouched: two-stage only changes how xSub is produced.

package core

import (
	"errors"
	"fmt"

	"repro/internal/iterative"
	"repro/internal/obs"
	"repro/internal/splu"
	"repro/internal/vec"
)

// Inner-count schedules for the two-stage mode (TwoStage.Schedule).
const (
	// ScheduleFixed runs the same InnerIters sweeps every outer iteration
	// (the stationary two-stage method).
	ScheduleFixed = "fixed"
	// ScheduleRamp doubles the sweep count from 1 until it reaches
	// InnerIters: early outer iterations work on stale boundary data, so
	// polishing the inner solve there is wasted arithmetic.
	ScheduleRamp = "ramp"
	// ScheduleResidual adapts the count per band from the contraction the
	// previous inner stage achieved, between 1 and residualMaxSweeps,
	// starting at InnerIters. Purely local data, so determinism is kept.
	ScheduleResidual = "residual"
)

// residualMaxSweeps caps the residual-driven schedule's growth.
const residualMaxSweeps = 64

// stageGrowthLimit is iterative.PrecondSweeps' tenfold residual-growth limit,
// carried across the warm-started stages of successive outer iterations.
const stageGrowthLimit = 10

// TwoStage configures the two-stage (inner-iterative) solver mode; the zero
// value keeps the exact stationary method. See DESIGN.md §14.
type TwoStage struct {
	// InnerIters > 0 enables two-stage mode: each outer iteration solves its
	// band system with this many preconditioned relaxation sweeps (the base
	// count — the schedule may vary it per iteration) instead of the exact
	// band LU solve.
	InnerIters int
	// Schedule selects the inner-count schedule: ScheduleFixed (default),
	// ScheduleRamp or ScheduleResidual.
	Schedule string
	// Omega is the relaxation weight of the inner sweeps, in (0, 2);
	// default 1 (plain preconditioned Richardson).
	Omega float64
	// PrecondBand is the half-bandwidth of the inner band preconditioner M:
	// the |i−j| ≤ PrecondBand band of each band submatrix, factored once by
	// the banded LU. Default 16. A width at or above the submatrix bandwidth
	// makes the inner solve exact in one sweep.
	PrecondBand int
}

// enabled reports whether the two-stage mode is on.
func (t TwoStage) enabled() bool { return t.InnerIters > 0 }

// withDefaults fills the documented defaults (only meaningful when enabled).
func (t TwoStage) withDefaults() TwoStage {
	if t.Schedule == "" {
		t.Schedule = ScheduleFixed
	}
	if t.Omega == 0 {
		t.Omega = 1
	}
	if t.PrecondBand == 0 {
		t.PrecondBand = 16
	}
	return t
}

// validate rejects malformed two-stage configurations (after withDefaults).
func (t TwoStage) validate() error {
	if !t.enabled() {
		return nil
	}
	switch t.Schedule {
	case ScheduleFixed, ScheduleRamp, ScheduleResidual:
	default:
		return fmt.Errorf("core: unknown inner schedule %q", t.Schedule)
	}
	if t.Omega <= 0 || t.Omega >= 2 {
		return fmt.Errorf("core: two-stage omega %v outside (0,2)", t.Omega)
	}
	if t.PrecondBand < 0 {
		return fmt.Errorf("core: two-stage preconditioner band %d < 0", t.PrecondBand)
	}
	return nil
}

// innerSchedule is the per-band nonstationary inner-count state. next is
// driven only by the outer iteration number and this band's own inner
// contraction history, so schedules stay deterministic under any exchange
// policy, worker count and lane count.
type innerSchedule struct {
	ts TwoStage
	k  int // residual-driven current count
}

func newInnerSchedule(ts TwoStage) innerSchedule { return innerSchedule{ts: ts, k: ts.InnerIters} }

// next returns the sweep count for outer iteration iter (1-based).
func (s *innerSchedule) next(iter int) int {
	switch s.ts.Schedule {
	case ScheduleRamp:
		k := 1
		for i := 1; i < iter && k < s.ts.InnerIters; i++ {
			k <<= 1
		}
		if k > s.ts.InnerIters {
			k = s.ts.InnerIters
		}
		return k
	case ScheduleResidual:
		return s.k
	default:
		return s.ts.InnerIters
	}
}

// observe feeds one inner stage's contraction back into the residual-driven
// schedule: a stage that kept more than a quarter of its starting residual
// doubles the next count, one that shed 99% halves it.
func (s *innerSchedule) observe(r iterative.InnerResult) {
	if s.ts.Schedule != ScheduleResidual || r.Res0 == 0 {
		return
	}
	limit := residualMaxSweeps
	if s.ts.InnerIters > limit {
		limit = s.ts.InnerIters
	}
	ratio := r.Res / r.Res0
	switch {
	case ratio > 0.25 && s.k < limit:
		if s.k *= 2; s.k > limit {
			s.k = limit
		}
	case ratio < 0.01 && s.k > 1:
		s.k /= 2
	}
}

// twoStageState is the per-band inner-stage state riding on bandState: the
// band preconditioner, the schedule, scratch for the sweeps and the outcome
// of the last inner stage.
type twoStageState struct {
	opt   TwoStage
	pc    splu.Preconditioner
	sched innerSchedule
	r, t  []float64 // sweep scratch, arena-backed

	sweeps int // count chosen for the current iteration
	res    iterative.InnerResult
	err    error
	growth float64 // residual growth over the current streak of growing stages

	// fellBack is set once the inner iteration diverged and the band
	// switched to the exact band solve; the two-stage path is then skipped
	// for the rest of the rank's life (the preconditioner demonstrably does
	// not contract this band).
	fellBack bool
}

// stageCost returns the exact declared cost of one two-stage outer step of
// band b with the current sweep count: the dependency SpMV, the sweeps (with
// their closing residual evaluation) and the successive-iterate difference
// norm.
func (ts *twoStageState) stageCost(b *bandState) float64 {
	return 2*float64(b.depMat.NNZ()) + iterative.PrecondSweepsFlops(b.sub, ts.pc, ts.sweeps) + 2*float64(b.band.Size())
}

// buildTwoStage factors the band preconditioners of every owned band in one
// deferred segment (like the exact factorization: the banded elimination
// cost is value-dependent). A band with a singular preconditioner is logged
// and returned among the bands left for the exact path; a memory failure is
// final.
func (st *rankState) buildTwoStage() ([]*bandState, error) {
	o := st.o
	ctx := st.ctx
	pcs := make([]splu.Preconditioner, len(st.bands))
	errs := make([]error, len(st.bands))
	st.c.ComputeDeferred(func() float64 {
		for i, b := range st.bands {
			pcs[i], errs[i] = splu.NewBandPreconditioner(b.sub, o.TwoStage.PrecondBand, ctx.Cnt())
		}
		return ctx.Counter.Flops() - ctx.Charged
	})
	var exact []*bandState
	var pcBytes int64
	for i, b := range st.bands {
		if errs[i] != nil {
			exact = append(exact, b)
			continue
		}
		pcBytes += pcs[i].Bytes()
		b.ts = &twoStageState{opt: o.TwoStage, pc: pcs[i], sched: newInnerSchedule(o.TwoStage)}
	}
	if err := ctx.Alloc(pcBytes); err != nil {
		return nil, err
	}
	return exact, nil
}

// sweep is band b's two-stage step inside the step segment (worker-pool
// rules apply: only this rank's state, never the simulator). On divergence
// it restores the previous iterate so the exact redo starts clean.
func (b *bandState) sweep(cnt *vec.Counter) {
	ts := b.ts
	copy(b.rhs, b.bSub)
	if len(b.depCols) > 0 {
		b.depMat.MulVecSub(b.rhs, b.z, cnt)
	}
	ts.res, ts.err = iterative.PrecondSweeps(b.sub, ts.pc, b.xSub, b.rhs,
		ts.opt.Omega, ts.sweeps, ts.r, ts.t, cnt)
	if ts.err == nil {
		ts.err = ts.checkGrowth()
	}
	if ts.err != nil {
		copy(b.xSub, b.xPrev)
		return
	}
	b.diff = vec.DiffNormInf(b.xSub, b.xPrev, cnt)
	copy(b.xPrev, b.xSub)
}

// checkGrowth rejects an inner iteration that diverges slowly, within
// PrecondSweeps' per-stage limits but stage after stage. Left running, the
// band ships iterates growing toward overflow, and after the fallback its
// neighbours' incrementally updated z keeps a rounding residue of that
// transient far above the solution's scale.
func (ts *twoStageState) checkGrowth() error {
	r := ts.res
	if r.Res <= r.Res0 || r.Res0 == 0 {
		ts.growth = 0
		return nil
	}
	ts.growth = max(ts.growth, 1) * r.Res / r.Res0
	if ts.growth > stageGrowthLimit {
		return fmt.Errorf("%w: residual grew %.3g-fold over consecutive inner stages",
			iterative.ErrDiverged, ts.growth)
	}
	return nil
}

// finishInner books the inner stages of the step segment that began at
// start: tallies, schedule feedback and spans for every two-stage band, and
// the fallback to the exact band solve for a band whose sweeps diverged.
func (st *rankState) finishInner(start float64) error {
	ran := false
	for _, b := range st.bands {
		ts := b.ts
		if ts == nil || ts.fellBack {
			continue
		}
		if ts.err != nil {
			if !errors.Is(ts.err, iterative.ErrDiverged) {
				return fmt.Errorf("%s: %w", st.who(b), ts.err)
			}
			if err := st.twoStageFallback(b); err != nil {
				return err
			}
			continue
		}
		ran = true
		st.innerSweeps += int64(ts.sweeps)
		st.innerFlops += iterative.PrecondSweepsFlops(b.sub, ts.pc, ts.sweeps)
		ts.sched.observe(ts.res)
		if sc := st.ctx.Observe(); sc != nil {
			sc.Span(obs.Span{Cat: obs.CatInner, Name: "inner", Iter: st.iter,
				Start: start, End: st.c.Now(), Flops: ts.stageCost(b)})
			sc.Count("inner_sweeps", float64(ts.sweeps))
		}
	}
	if sc := st.ctx.Observe(); ran && sc != nil {
		// Cumulative sweep series: the windowed telemetry layer turns this
		// into per-window inner-sweep progress alongside the residual series.
		sc.Sample("inner_sweeps", st.c.Now(), float64(st.innerSweeps))
	}
	return nil
}

// twoStageFallback switches a band whose inner iteration diverged to the
// exact band solve: factor the band (deferred, full memory accounting — on
// an undersized host this is where the memory wall reappears), rebuild the
// declared step cost and redo the band's current step exactly. The aborted
// inner segment declared more arithmetic than it performed, so the charge
// watermark is wound back to the counted work before continuing.
func (st *rankState) twoStageFallback(b *bandState) error {
	ts := b.ts
	ctx := st.ctx
	if f := ctx.Counter.Flops(); f < ctx.Charged {
		ctx.Charged = f
	}
	start := st.c.Now()
	f0 := ctx.Counter.Flops()
	if err := st.factorBands([]*bandState{b}); err != nil {
		return fmt.Errorf("two-stage fallback: %w", err)
	}
	if err := ctx.Alloc(b.fact.Bytes()); err != nil {
		return err
	}
	st.factFlops += ctx.Counter.Flops() - f0
	ts.fellBack = true
	st.fallbacks++
	b.stepFlops = b.exactStepFlops()
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatFact, Name: "fallback-factor",
			Start: start, End: st.c.Now(), Flops: ctx.Counter.Flops() - f0})
		sc.Count("twostage_fallback", 1)
	}
	st.diverged = nil
	st.c.ComputeSeg(b.stepFlops, func() { st.solveExact(b, ctx.Counter) })
	if st.diverged != nil {
		return fmt.Errorf("%s: %w at iteration %d", st.who(b), ErrDiverged, st.iter)
	}
	return nil
}
