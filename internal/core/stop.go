package core

import (
	"repro/internal/vec"
)

// stopper produces the scalar convergence criterion a rank compares against
// Tol each iteration. Two strategies: the paper's cheap successive-iterate
// difference, and the more expensive true band residual. series names the
// criterion in the observability exports ("diff" or "residual").
type stopper interface {
	crit(st *rankState) float64
	series() string
}

func newStopper(o Options) stopper {
	if o.UseResidual {
		return &residualStopper{}
	}
	return iterateStopper{}
}

// iterateStopper reuses ‖x_new − x_old‖∞ already measured during the compute
// step, so it adds no flops of its own.
type iterateStopper struct{}

func (iterateStopper) crit(st *rankState) float64 { return st.diff }

func (iterateStopper) series() string { return "diff" }

// residualStopper evaluates ‖BSub − Dep·z − ASub·XSub‖∞ — the genuine local
// residual of each owned band's equation given the current dependency
// values, maximized over the bands.
type residualStopper struct {
	rtmp []float64
}

func (r *residualStopper) crit(st *rankState) float64 {
	cnt := st.ctx.Counter
	crit := 0.0
	for i, b := range st.bands {
		// Capacity check rather than nil check: a resplit changes the band
		// size mid-run and the scratch must follow.
		n := len(b.bSub)
		if cap(r.rtmp) < n {
			r.rtmp = make([]float64, n)
		}
		rt := r.rtmp[:n]
		copy(rt, b.bSub)
		if len(b.depCols) > 0 {
			b.depMat.MulVecSub(rt, b.z, cnt)
		}
		b.sub.MulVecSub(rt, b.xSub, cnt)
		if v := vec.NormInf(rt, cnt); i == 0 || v > crit {
			crit = v
		}
	}
	return crit
}

func (*residualStopper) series() string { return "residual" }
