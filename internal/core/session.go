// Persistent solver sessions: the paper's factor-once economy (Remark 4)
// lifted to sequences of same-pattern systems. A Newton-multisplitting outer
// loop solves a Jacobian system whose sparsity never changes; a session keeps
// every band's symbolic state — submatrices, dependency-column selection,
// communication plan, buffers and factorization — alive across solves and
// refreshes only the numeric values, refactorizing through the frozen pattern
// (splu.Refactorer) instead of factoring from scratch.

package core

import (
	"errors"
	"fmt"

	"repro/internal/iterative"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/simctx"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// SeqSession is a persistent sequential multisplitting solver: build once,
// then Resolve repeatedly against new values of the same-pattern matrix and
// new right-hand sides. The first Resolve factors every band; later Resolves
// refresh the extracted band values in place through frozen position maps and
// refactorize (numeric-only) when the band factorization supports it.
type SeqSession struct {
	// NoRefactor forces a full factorization on every Resolve (the per-step
	// Factor baseline, kept for ablation measurements).
	NoRefactor bool
	// TwoStage, when enabled, replaces each band's exact inner solve with
	// scheduled preconditioned relaxation sweeps (see Options.TwoStage; the
	// nonlinear driver passes its Inner options through here). Set it
	// before the first Resolve. A band whose inner iteration diverges falls
	// back to the exact factorization for the rest of the session.
	TwoStage TwoStage

	a       *sparse.CSR // pattern template; values refreshed by Resolve
	d       *Decomposition
	solver  splu.Direct
	systems []*bandSystem
	subMaps [][]int // per band: positions in a.Val feeding sub.Val
	depMaps [][]int // per band: positions in a.Val feeding depMat.Val
	subs    []*sparse.CSR
	// Persistent iteration state, reused across Resolves so the steady-state
	// iteration allocates nothing.
	xb, newXb [][]float64
	z         [][]float64
	rhs       [][]float64
	x         []float64 // assembled solution; owned by the session
	res       SeqResult // returned by Resolve; owned by the session
	factored  bool

	// InnerSweeps accumulates the two-stage inner sweeps across Resolves
	// (zero in exact mode).
	InnerSweeps int64
	// TwoStageFallbacks counts the bands that abandoned the inner iteration
	// after divergence.
	TwoStageFallbacks int

	// Two-stage state: per-band preconditioners (nil entries run exact),
	// schedules and shared sweep scratch.
	ts     TwoStage
	pcs    []splu.Preconditioner
	scheds []innerSchedule
	tr, tt []float64
}

// NewSeqSession prepares a sequential session for the pattern of a. The
// values of a are the initial numeric state; Resolve(nil, …) uses them.
func NewSeqSession(a *sparse.CSR, d *Decomposition, solver splu.Direct) (*SeqSession, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if a.Rows != a.Cols || a.Rows != d.N {
		return nil, fmt.Errorf("core: session shape mismatch: A is %dx%d, n=%d", a.Rows, a.Cols, d.N)
	}
	if solver == nil {
		solver = &splu.SparseLU{}
	}
	s := &SeqSession{a: a.Clone(), d: d, solver: solver}
	s.systems = make([]*bandSystem, d.L())
	s.subMaps = make([][]int, d.L())
	s.depMaps = make([][]int, d.L())
	s.subs = make([]*sparse.CSR, d.L())
	s.xb = make([][]float64, d.L())
	s.newXb = make([][]float64, d.L())
	s.z = make([][]float64, d.L())
	s.rhs = make([][]float64, d.L())
	for l, band := range d.Bands {
		sub := s.a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
		left := s.a.ColumnsUsed(band.Lo, band.Hi, 0, band.Lo)
		right := s.a.ColumnsUsed(band.Lo, band.Hi, band.Hi, d.N)
		depCols := make([]int, 0, len(left)+len(right))
		depCols = append(depCols, left...)
		depCols = append(depCols, right...)
		bs := &bandSystem{
			band:    band,
			depCols: depCols,
			depMat:  s.a.SelectColumns(band.Lo, band.Hi, depCols),
			bSub:    make([]float64, band.Size()),
		}
		bs.contributors = make([][]contrib, len(depCols))
		for i, j := range depCols {
			for _, k := range d.Contributors(j) {
				bs.contributors[i] = append(bs.contributors[i], contrib{band: k, weight: d.Weight(k, j)})
			}
		}
		s.systems[l] = bs
		s.subs[l] = sub
		s.subMaps[l] = s.a.SubmatrixMap(band.Lo, band.Hi, band.Lo, band.Hi)
		s.depMaps[l] = s.a.SelectColumnsMap(band.Lo, band.Hi, depCols)
		s.xb[l] = make([]float64, band.Size())
		s.newXb[l] = make([]float64, band.Size())
		s.z[l] = make([]float64, len(depCols))
		s.rhs[l] = make([]float64, band.Size())
	}
	s.x = make([]float64, d.N)
	return s, nil
}

// Resolve solves the system with the matrix values newVals (ordered like the
// template's Val array; nil keeps the previous values) and right-hand side b.
// The returned SeqResult.X aliases a session-owned buffer that the next
// Resolve overwrites; callers that keep it across calls must copy it.
func (s *SeqSession) Resolve(newVals, b []float64, tol float64, maxIter int, c *vec.Counter) (*SeqResult, error) {
	d := s.d
	if err := setValues(s.a, newVals, b); err != nil {
		return nil, err
	}

	// First Resolve of a two-stage session: validate the configuration and
	// size the per-band schedule and scratch state.
	if !s.factored && s.TwoStage.enabled() {
		s.ts = s.TwoStage.withDefaults()
		if err := s.ts.validate(); err != nil {
			return nil, err
		}
		s.pcs = make([]splu.Preconditioner, d.L())
		s.scheds = make([]innerSchedule, d.L())
		maxSz := 0
		for _, band := range d.Bands {
			if band.Size() > maxSz {
				maxSz = band.Size()
			}
		}
		s.tr = make([]float64, maxSz)
		s.tt = make([]float64, maxSz)
	}
	if s.pcs != nil {
		// Each Resolve is a fresh solve from a zero guess: restart the
		// nonstationary schedules with it.
		for l := range s.scheds {
			s.scheds[l] = newInnerSchedule(s.ts)
		}
	}

	// Numeric phase: refresh the extracted blocks through the frozen maps,
	// then refactor (or factor, first time / baseline / unsupported solver).
	// Two-stage bands factor (and refresh) the band preconditioner instead.
	factStart := c.Flops()
	for l, bs := range s.systems {
		sub := s.subs[l]
		if newVals != nil || !s.factored {
			for k, p := range s.subMaps[l] {
				sub.Val[k] = s.a.Val[p]
			}
			for k, p := range s.depMaps[l] {
				bs.depMat.Val[k] = s.a.Val[p]
			}
		}
		exact := true
		if s.pcs != nil {
			if !s.factored {
				if pc, pcErr := splu.NewBandPreconditioner(sub, s.ts.PrecondBand, c); pcErr == nil {
					s.pcs[l] = pc
					exact = false
				} else {
					// Singular preconditioner band: this band runs exact
					// from the start.
					s.TwoStageFallbacks++
				}
			} else if s.pcs[l] != nil {
				if newVals != nil {
					if err := s.pcs[l].Refresh(sub, c); err != nil {
						return nil, fmt.Errorf("core: band %d preconditioner refresh: %w", l, err)
					}
				}
				exact = false
			}
		}
		if exact {
			rf, canRefactor := bs.fact.(splu.Refactorer)
			switch {
			case s.factored && newVals == nil && bs.fact != nil:
				// Same values: the factors are already current.
			case s.factored && canRefactor && !s.NoRefactor:
				if err := rf.Refactor(sub, c); err != nil {
					return nil, fmt.Errorf("core: band %d refactorization: %w", l, err)
				}
			default:
				fact, err := s.solver.Factor(sub, c)
				if err != nil {
					return nil, fmt.Errorf("core: band %d factorization: %w", l, err)
				}
				bs.fact = fact
			}
		}
		copy(bs.bSub, b[bs.band.Lo:bs.band.Hi])
	}
	s.factored = true
	factFlops := c.Flops() - factStart

	// Iteration phase: the same fixed-point sweep as SolveSequential, but on
	// persistent buffers — the steady-state loop performs no allocation.
	for l := range s.xb {
		vec.Zero(s.xb[l])
	}
	diff := 0.0
	for iter := 1; iter <= maxIter; iter++ {
		diff = 0
		for l, bs := range s.systems {
			rhs := s.rhs[l]
			copy(rhs, bs.bSub)
			if len(bs.depCols) > 0 {
				z := s.z[l]
				for i := range bs.depCols {
					z[i] = 0
					for _, ct := range bs.contributors[i] {
						kb := s.systems[ct.band].band
						z[i] += ct.weight * s.xb[ct.band][bs.depCols[i]-kb.Lo]
					}
				}
				bs.depMat.MulVecSub(rhs, z, c)
			}
			if s.pcs != nil && s.pcs[l] != nil {
				if err := s.innerSolve(l, iter, rhs, c); err != nil {
					return nil, err
				}
			} else {
				bs.fact.Solve(s.newXb[l], rhs, c)
			}
			if !vec.AllFinite(s.newXb[l]) {
				return nil, fmt.Errorf("%w: band %d at iteration %d", ErrDiverged, l, iter)
			}
			if dl := vec.DiffNormInf(s.newXb[l], s.xb[l], c); dl > diff {
				diff = dl
			}
		}
		for l := range s.xb {
			s.xb[l], s.newXb[l] = s.newXb[l], s.xb[l]
		}
		if diff <= tol {
			s.res = SeqResult{X: s.assembleInto(), Iterations: iter, Diff: diff, FactorFlops: factFlops}
			return &s.res, nil
		}
	}
	s.res = SeqResult{X: s.assembleInto(), Iterations: maxIter, Diff: diff, FactorFlops: factFlops}
	return &s.res, ErrNoConvergence
}

// setValues checks a session Resolve's inputs against the pattern template a
// and writes newVals (nil keeps the previous values) into it.
func setValues(a *sparse.CSR, newVals, b []float64) error {
	if len(b) != a.Rows {
		return fmt.Errorf("core: session rhs length %d, want %d", len(b), a.Rows)
	}
	if newVals != nil && len(newVals) != a.NNZ() {
		return fmt.Errorf("core: session got %d values for a pattern with %d", len(newVals), a.NNZ())
	}
	copy(a.Val, newVals)
	return nil
}

// innerSolve runs band l's scheduled inner sweeps (two-stage mode), falling
// back to a fresh exact factorization for the rest of the session when the
// sweeps diverge.
func (s *SeqSession) innerSolve(l, iter int, rhs []float64, c *vec.Counter) error {
	bs := s.systems[l]
	n := bs.band.Size()
	x := s.newXb[l]
	copy(x, s.xb[l]) // warm start from the previous outer iterate
	k := s.scheds[l].next(iter)
	res, err := iterative.PrecondSweeps(s.subs[l], s.pcs[l], x, rhs, s.ts.Omega, k, s.tr[:n], s.tt[:n], c)
	if err == nil {
		s.InnerSweeps += int64(res.Sweeps)
		s.scheds[l].observe(res)
		return nil
	}
	if !errors.Is(err, iterative.ErrDiverged) {
		return fmt.Errorf("core: band %d inner solve: %w", l, err)
	}
	// Divergent inner stage: abandon two-stage for this band, factor the
	// exact band solver and redo the solve.
	s.pcs[l] = nil
	s.TwoStageFallbacks++
	fact, ferr := s.solver.Factor(s.subs[l], c)
	if ferr != nil {
		return fmt.Errorf("core: band %d two-stage fallback: %w", l, ferr)
	}
	bs.fact = fact
	bs.fact.Solve(x, rhs, c)
	return nil
}

// assembleInto combines the band iterates into the session's solution buffer.
func (s *SeqSession) assembleInto() []float64 {
	vec.Zero(s.x)
	for k, bs := range s.systems {
		for j := bs.band.Lo; j < bs.band.Hi; j++ {
			if w := s.d.Weight(k, j); w > 0 {
				s.x[j] += w * s.xb[k][j-bs.band.Lo]
			}
		}
	}
	return s.x
}

// Fallbacks sums the pivot-degradation fallbacks across the session's bands.
func (s *SeqSession) Fallbacks() int {
	n := 0
	for _, bs := range s.systems {
		if rf, ok := bs.fact.(splu.Refactorer); ok {
			n += rf.Fallbacks()
		}
	}
	return n
}

// Session is the distributed counterpart of SeqSession: a persistent
// multisplitting solver over the simulated grid. Engines cannot be re-run, so
// every Resolve runs on an engine the caller built — workers, lanes, the obs
// recorder and fault plans are set on it exactly as for Launch. What persists
// is the setup of the first Resolve (decomposition and communication plan)
// and each rank's solver state — submatrices, dependency-column selection,
// buffers and factorization. Later Resolves refresh the numeric values
// through frozen position maps and refactorize as a declared compute
// segment: the refactor cost is known exactly after the symbolic phase
// (splu.Refactorer.RefactorFlops), so it schedules like any other declared
// segment and overlaps across ranks on the worker pool, instead of the
// measured lower-bound scheduling a deferred factorization needs.
type Session struct {
	// NoRefactor forces a full factorization on every Resolve (per-step
	// Factor baseline, for ablation).
	NoRefactor bool

	// j holds the options and the pattern template whose values Resolve
	// refreshes; the first Resolve completes it with the decomposition and
	// communication plan (prepare) and sizes ranks.
	j     *job
	ranks []*sessionRank
}

// sessionRank is the state of one rank that survives across Resolves,
// together with the frozen maps refreshing its extracted values. gen is the
// rank state's resplit generation the maps were derived for (-1: not yet):
// when an adaptive Resolve resplit the decomposition mid-run, the maps were
// built for a band that no longer exists and must be re-derived.
type sessionRank struct {
	st     *rankState
	subMap []int
	depMap []int
	gen    int
}

// NewSession prepares a persistent distributed session for the pattern of a.
// The decomposition is fixed by the first Resolve's hosts (sized by their
// speeds under Balance); options that rewrite the matrix (Equilibrate),
// multiplex bands (BandsPerProc > 1) or route through gateways are rejected.
func NewSession(a *sparse.CSR, opt Options) (*Session, error) {
	o := opt.withDefaults()
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: session needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if err := o.validate(0, true); err != nil {
		return nil, err
	}
	return &Session{j: &job{o: o, a: a.Clone()}}, nil
}

// Resolve solves the system with matrix values newVals (ordered like the
// template's Val array; nil keeps the previous values) and right-hand side b
// on the engine e, which the caller built and has not run, reusing every
// rank's persistent state. The first Resolve fixes the hosts' count.
func (s *Session) Resolve(e *vgrid.Engine, hosts []*vgrid.Host, newVals, b []float64) (*Result, error) {
	if err := setValues(s.j.a, newVals, b); err != nil {
		return nil, err
	}
	if s.ranks == nil {
		j, err := prepare(e.Platform, hosts, s.j.a, b, s.j.o, true)
		if err != nil {
			return nil, err
		}
		s.j, s.ranks = j, make([]*sessionRank, len(hosts))
	} else if len(hosts) != len(s.ranks) {
		return nil, fmt.Errorf("core: session built for %d hosts, got %d", len(s.ranks), len(hosts))
	}
	s.j.b = b
	return s.j.launch(e, hosts, s, newVals != nil).run(e)
}

// refreshRank rebinds a persistent rank to a fresh engine run, refreshes its
// numeric values through the frozen maps and refactorizes. It returns the
// refresh time; st.factFlops ends up holding the refresh's arithmetic (zero
// when the values did not change). Sessions run one band per rank (validate
// rejects BandsPerProc > 1).
func (s *Session) refreshRank(sr *sessionRank, c *mp.Comm, ctx *simctx.Ctx, bGlob []float64, refresh bool) (float64, error) {
	st := sr.st
	st.c, st.ctx, st.bGlob = c, ctx, bGlob
	b := st.bands[0]
	band := b.band

	// Derive the frozen value-refresh maps on the first refresh, and again
	// after a resplit during the previous Resolve moved the band. The
	// factorization already matches the current band (the transition
	// factored it), so the ordinary refactor path below stays valid.
	if sr.gen != st.gen {
		sr.subMap = st.aGlob.SubmatrixMap(band.Lo, band.Hi, band.Lo, band.Hi)
		sr.depMap = st.aGlob.SelectColumnsMap(band.Lo, band.Hi, b.depCols)
		sr.gen = st.gen
	}

	// Reset the iteration state: a Resolve is a new solve from a zero guess,
	// identical to what a fresh rank would run.
	vec.Zero(b.xSub)
	vec.Zero(b.xPrev)
	vec.Zero(b.z)
	for i := range st.lastRecv {
		vec.Zero(st.lastRecv[i])
		st.verIncorporated[i] = 0
		st.echoFrom[i] = 0
		st.freshSeen[i] = false
		st.staleCount[i] = 0
	}
	st.iter, st.diff, st.stableRuns, st.stableStart = 0, 0, 0, 0
	st.factFlops = 0
	st.innerSweeps, st.innerFlops, st.fallbacks = 0, 0, 0
	copy(b.bSub, bGlob[band.Lo:band.Hi])

	// The simulated process is new even though the factors persist in the
	// driver: account its working set against the fresh host. In two-stage
	// mode the resident factor is the band preconditioner, not an LU.
	twoStage := b.ts != nil && !b.ts.fellBack
	if twoStage {
		b.ts.sched = newInnerSchedule(b.ts.opt)
		b.ts.growth = 0
	}
	if err := ctx.Alloc(b.footprint()); err != nil {
		return 0, err
	}
	if !refresh {
		return 0, nil
	}
	for k, p := range sr.subMap {
		b.sub.Val[k] = st.aGlob.Val[p]
	}
	for k, p := range sr.depMap {
		b.depMat.Val[k] = st.aGlob.Val[p]
	}

	factStart := c.Now()
	flops0 := ctx.Counter.Flops()
	cat, name := obs.CatRefact, "refactor"
	rf, canRefactor := b.fact.(splu.Refactorer)
	var err error
	switch {
	case twoStage:
		// Refactor the preconditioner from the refreshed band values. The
		// banded elimination cost is value dependent (pivoting), so this is
		// a deferred segment like the initial build.
		name = "precond-refresh"
		c.ComputeDeferred(func() float64 {
			err = b.ts.pc.Refresh(b.sub, ctx.Cnt())
			return ctx.Counter.Flops() - ctx.Charged
		})
	case canRefactor && !s.NoRefactor:
		// The refactor cost is frozen by the symbolic phase, so this is a
		// declared segment; Charge reconciles the rare pivot-degradation
		// fallback, which costs a full factorization instead.
		c.ComputeSeg(rf.RefactorFlops(), func() {
			err = rf.Refactor(b.sub, ctx.Cnt())
		})
		c.Charge()
	default:
		cat, name = obs.CatFact, "factor"
		if err := st.factorBands(st.bands); err != nil {
			return 0, err
		}
	}
	if err != nil {
		return 0, fmt.Errorf("rank %d: %s: %w", st.rank, name, err)
	}
	st.factFlops = ctx.Counter.Flops() - flops0
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: cat, Name: name, Start: factStart, End: c.Now(), Flops: st.factFlops})
	}
	if !twoStage {
		// A fallback or re-factor may change the fill, so the per-iteration
		// declared cost is recomputed.
		b.stepFlops = b.exactStepFlops()
	}
	return c.Now() - factStart, nil
}
