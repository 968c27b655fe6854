package core

import (
	"fmt"
	"math"

	"repro/internal/detect"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/simctx"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
)

// msgHdr is the two-slot message header preceding the exchanged values: the
// sender's own iteration version and, for the specific receiver, the highest
// version of the *receiver's* data the sender has incorporated so far (the
// causal echo). The asynchronous detection uses the echo to require a full
// round trip of stabilized data before declaring local convergence, which is
// what keeps detection sound when messages pipeline over high-latency links.
const msgHdr = 2

// bandState is one owned band's solver state: the extracted subsystem, its
// dependency coupling, the inner solver (exact factorization, or the
// two-stage band preconditioner) and the iteration vectors. A rank owns one
// band in the common case and BandsPerProc of them under the paper's
// Remark 2; either way the engine loop runs over the same slice.
type bandState struct {
	idx  int // global band index (rank + slot·P under the cyclic map)
	band Band

	sub     *sparse.CSR
	depMat  *sparse.CSR
	depCols []int
	fact    splu.Factorization
	// ts is the two-stage inner-iteration state (nil in exact mode; see
	// twostage.go). While active the band runs scheduled sweeps instead of
	// fact.Solve and its declared step cost varies with the sweep count.
	ts *twoStageState

	bSub  []float64
	xSub  []float64
	xPrev []float64
	rhs   []float64
	z     []float64 // weighted dependency values (zero start)

	// stepFlops is the analytic cost of one exact computation step (SpMV
	// against the dependency columns + triangular solves + difference norm);
	// it is exact, so declaring it up front leaves nothing for Charge to
	// reconcile.
	stepFlops float64
	diff      float64 // successive-iterate difference of the last step
}

// owned returns the band's owned cells of the current iterate.
func (b *bandState) owned() []float64 {
	return b.xSub[b.band.Start-b.band.Lo : b.band.End-b.band.Lo]
}

// exactStepFlops is the declared cost of one exact step: SpMV counts 2·nnz,
// the triangular solves a factor-determined constant, the difference norm
// 2·n — all exact integers, so the declared cost matches the counted flops
// bit for bit.
func (b *bandState) exactStepFlops() float64 {
	return 2*float64(b.depMat.NNZ()) + b.fact.SolveFlops() + 2*float64(b.band.Size())
}

// footprint is the band's resident working set for the memory accounting:
// the extracted matrices, the right-hand side and whatever inner solvers it
// holds (a fallen-back two-stage band keeps its preconditioner too).
func (b *bandState) footprint() int64 {
	n := csrBytes(b.sub) + csrBytes(b.depMat) + 8*int64(b.band.Size())
	if b.fact != nil {
		n += b.fact.Bytes()
	}
	if b.ts != nil {
		n += b.ts.pc.Bytes()
	}
	return n
}

// rankState is one rank's full solver state for the band engine: its owned
// bands, its view of the shared communication plan and the per-peer
// exchange bookkeeping. The engine loop (msRankRun) drives it through an
// exchangePolicy and a stopper.
type rankState struct {
	c    *mp.Comm
	ctx  *simctx.Ctx
	o    Options
	rank int
	d    *Decomposition

	// aGlob and bGlob are the globally-readable system (paper
	// Initialization); the adaptive resplit transition re-extracts the new
	// band from them. gen counts the resplit transitions this rank has
	// applied — the persistent Session uses it to notice that its frozen
	// value-refresh maps went stale.
	aGlob *sparse.CSR
	bGlob []float64
	gen   int

	// bands holds the owned bands in ascending index order: rank r owns
	// bands r, r+P, r+2P…, so band k lives in slot (k−r)/P (see bandAt).
	bands []*bandState

	// stepFn is the computation-step segment body, built once so the
	// per-iteration ComputeSeg call allocates no closure; it reports a
	// non-finite iterate through diverged.
	stepFn   func()
	diverged *bandState
	// factFlops accumulates this rank's factorization arithmetic (exact LU
	// or band preconditioner, plus any two-stage fallback factor) for
	// Result.FactorFlops.
	factFlops float64
	// Two-stage tallies over the owned bands, aggregated into Result.
	innerSweeps int64
	innerFlops  float64
	fallbacks   int

	// cp is the shared communication plan; rp is this rank's view (one
	// packed message per peer per iteration, see internal/plan).
	cp *plan.Plan
	rp *plan.RankPlan
	// recvGroupByPeer maps a contributor rank to its index in rp.Recv.
	recvGroupByPeer map[int]int
	verIncorporated []float64 // latest version seen per recv group
	echoFrom        []float64 // highest own version echoed back, per group
	// lastRecv[g] holds the last packed values received from recv group g so
	// z can be updated incrementally under the weighting scheme; localLast
	// does the same for the intra-rank segments of rp.Local.
	lastRecv  [][]float64
	localLast [][]float64

	// freshSeen tracks, per recv group, whether new data arrived since the
	// last complete exchange round; async convergence evidence only counts
	// on complete rounds (see asyncPolicy).
	freshSeen  []bool
	staleCount []int
	sendBuf    []float64

	// gw is the gateway-aggregation state (nil in direct mode or when the
	// platform is flat): inter-cluster groups route through per-cluster
	// aggregator ranks instead of direct WAN messages.
	gw *gwState

	iter        int
	diff        float64 // successive-iterate difference, max over the bands
	stableRuns  int
	stableStart int // first iteration of the current stable streak
}

// bandAt returns the owned band with global index k.
func (st *rankState) bandAt(k int) *bandState {
	return st.bands[(k-st.rank)/st.cp.NRanks]
}

// who names a band in errors and diagnostics: "rank r", plus the band index
// when the rank owns several.
func (st *rankState) who(b *bandState) string {
	if len(st.bands) == 1 {
		return fmt.Sprintf("rank %d", st.rank)
	}
	return fmt.Sprintf("rank %d band %d", st.rank, b.idx)
}

// newRankState loads and factors the rank's bands (paper step 1 + Remark 4)
// and wires the rank into the shared communication plan (DependsOnMe of
// Algorithm 1, built once in Launch). It returns the state and the
// factorization time.
func newRankState(c *mp.Comm, ctx *simctx.Ctx, a *sparse.CSR, bGlob []float64, d *Decomposition, cp *plan.Plan, o Options) (*rankState, float64, error) {
	rank := c.Rank()
	st := &rankState{c: c, ctx: ctx, o: o, rank: rank, d: d, cp: cp,
		aGlob: a, bGlob: bGlob}
	st.rp = &cp.Ranks[rank]

	// --- Initialization: load and factor the bands.
	var loaded int64
	for k := rank; k < d.L(); k += cp.NRanks {
		band := d.Bands[k]
		b := &bandState{idx: k, band: band, depCols: cp.DepCols[k]}
		b.sub = a.Submatrix(band.Lo, band.Hi, band.Lo, band.Hi)
		b.depMat = a.SelectColumns(band.Lo, band.Hi, b.depCols)
		b.bSub = vec.Clone(bGlob[band.Lo:band.Hi])
		loaded += csrBytes(b.sub) + csrBytes(b.depMat) + 8*int64(band.Size())
		st.bands = append(st.bands, b)
	}
	if err := ctx.Alloc(loaded); err != nil {
		return nil, 0, err
	}
	factStart := c.Now()
	factFlops0 := ctx.Counter.Flops()
	factName := "factor"
	// Two-stage mode factors the narrow band preconditioner instead of the
	// full band LU — O(n·width) memory instead of the LU fill (twostage.go).
	// A band with a singular preconditioner falls through to the exact path.
	exact := st.bands
	if o.TwoStage.enabled() {
		var err error
		if exact, err = st.buildTwoStage(); err != nil {
			return nil, 0, err
		}
		if len(exact) < len(st.bands) {
			factName = "precond-factor"
		}
	}
	if err := st.factorBands(exact); err != nil {
		return nil, 0, err
	}
	factTime := c.Now() - factStart
	st.factFlops = ctx.Counter.Flops() - factFlops0
	if sc := ctx.Observe(); sc != nil {
		sc.Span(obs.Span{Cat: obs.CatFact, Name: factName,
			Start: factStart, End: c.Now(), Flops: st.factFlops})
	}
	var factBytes int64
	for _, b := range exact {
		factBytes += b.fact.Bytes()
	}
	if err := ctx.Alloc(factBytes); err != nil {
		return nil, 0, err
	}

	// --- Iteration state over the shared plan: per-peer receive groups with
	// preallocated incremental-update buffers, one reused send buffer sized
	// by the largest packed message. All the float state sub-slices a single
	// arena (three-index slicing keeps the append-grown sendBuf in its lane).
	ng := len(st.rp.Recv)
	sendCap := cp.MaxSendVals(rank) + msgHdr
	size := sendCap + 2*ng
	for _, b := range st.bands {
		size += 3*b.band.Size() + len(b.depCols)
		if b.ts != nil {
			size += 2 * b.band.Size() // inner-sweep residual + correction vectors
		}
	}
	for _, g := range st.rp.Recv {
		size += g.Vals
	}
	for _, s := range st.rp.Local {
		size += len(s.Pos)
	}
	arena := make([]float64, size)
	take := func(n int) []float64 {
		s := arena[:n:n]
		arena = arena[n:]
		return s
	}
	for _, b := range st.bands {
		sz := b.band.Size()
		b.xSub = take(sz)
		b.xPrev = take(sz)
		b.rhs = take(sz)
		if b.ts != nil {
			b.ts.r = take(sz)
			b.ts.t = take(sz)
		}
		b.z = take(len(b.depCols))
		if b.ts == nil {
			b.stepFlops = b.exactStepFlops()
		}
	}
	st.sendBuf = take(sendCap)[:0]
	st.recvGroupByPeer = map[int]int{}
	for gi, g := range st.rp.Recv {
		st.recvGroupByPeer[g.Peer] = gi
	}
	st.verIncorporated = take(ng)
	st.echoFrom = take(ng)
	st.lastRecv = make([][]float64, ng)
	for gi, g := range st.rp.Recv {
		st.lastRecv[gi] = take(g.Vals)
	}
	st.localLast = make([][]float64, len(st.rp.Local))
	for i, s := range st.rp.Local {
		st.localLast[i] = take(len(s.Pos))
	}
	st.freshSeen = make([]bool, ng)
	st.staleCount = make([]int, ng)
	if o.Gateway {
		// The reduction piggyback needs a pre-exchange criterion (the
		// successive-iterate difference) and the lockstep of the synchronous
		// policy.
		st.gw = newGwState(cp, rank, rankClusters(c), !o.Async && !o.UseResidual)
	}
	st.stepFn = st.step
	return st, factTime, nil
}

// factorBands factors the given bands with the rank's direct solver. The
// factorization's cost depends on the fill it discovers, so it is one
// deferred segment for all the bands: it runs on the worker pool
// (overlapping the other ranks' factorizations) and its counted flops are
// charged on completion. Reading the factors right after the call is safe:
// ComputeDeferred's commit guarantee (see vgrid) is that fn has completed
// and its writes are visible before the call returns, for any worker count.
func (st *rankState) factorBands(bands []*bandState) error {
	if len(bands) == 0 {
		return nil
	}
	solver := st.o.solverFor(st.rank)
	ctx := st.ctx
	var bad *bandState
	var factErr error
	st.c.ComputeDeferred(func() float64 {
		for _, b := range bands {
			if b.fact, factErr = solver.Factor(b.sub, ctx.Cnt()); factErr != nil {
				bad = b
				break
			}
		}
		return ctx.Counter.Flops() - ctx.Charged
	})
	if factErr != nil {
		return fmt.Errorf("%s: %w", st.who(bad), factErr)
	}
	return nil
}

// applyFaultOptions arms the communicator's retransmission policy when the
// degraded mode is on; on a healthy configuration it changes nothing.
func applyFaultOptions(c *mp.Comm, o Options) {
	if o.FaultTolerant {
		c.Retry = mp.RetryPolicy{Attempts: o.SendRetries, Backoff: o.SendBackoff}
	}
}

// recvCritical receives a message the protocol cannot progress without (a
// synchronous boundary exchange, the final gather). In fault-tolerant mode
// it waits in DeadRankTimeout windows instead of blocking forever and, once
// the budget is exhausted, diagnoses the silent peer: crashed host, failed
// process, or plain message loss.
func (st *rankState) recvCritical(from, tag int, what string) (*mp.Packet, error) {
	c, o := st.c, st.o
	if !o.FaultTolerant {
		return c.Recv(from, tag), nil
	}
	for range o.SendRetries {
		if pk := c.RecvTimeout(from, tag, o.DeadRankTimeout); pk != nil {
			return pk, nil
		}
	}
	switch {
	case c.PeerFailed(from):
		return nil, fmt.Errorf("rank %d: rank %d appears dead waiting for %s: process failed: %w",
			st.rank, from, what, c.PeerErr(from))
	case c.PeerDown(from):
		return nil, fmt.Errorf("rank %d: rank %d appears dead waiting for %s: its host is down",
			st.rank, from, what)
	default:
		return nil, fmt.Errorf("rank %d: rank %d appears dead waiting for %s: silent for %.3gs",
			st.rank, from, what, float64(o.SendRetries)*o.DeadRankTimeout)
	}
}

// applyGroup incorporates one peer's packed update (direct message or
// gateway-forwarded record): incremental z update under the weighting
// scheme, segment by segment in the group's canonical order, plus
// version/echo bookkeeping. vals carries exactly the group's Vals values.
func (st *rankState) applyGroup(gi int, ver, echo float64, vals []float64) {
	st.verIncorporated[gi] = ver
	if echo < 0 {
		// The sender does not depend on us: no echo is possible, the
		// round-trip criterion is vacuously satisfied for this channel.
		st.echoFrom[gi] = math.Inf(1)
	} else if echo > st.echoFrom[gi] {
		st.echoFrom[gi] = echo
	}
	g := &st.rp.Recv[gi]
	last := st.lastRecv[gi]
	off := 0
	for _, s := range g.Segs {
		z := st.bandAt(s.To).z
		for i, pos := range s.Pos {
			v := vals[off+i]
			z[pos] += s.Weights[i] * (v - last[off+i])
			last[off+i] = v
		}
		off += len(s.Pos)
	}
	st.ctx.Counter.Add(3 * float64(g.Vals))
}

// applyLocal incorporates the segments between two of this rank's own bands
// (Remark 2) in place: the same incremental z update as applyGroup, read
// straight from the producing band's fresh iterate instead of a message.
func (st *rankState) applyLocal() {
	for i, s := range st.rp.Local {
		x, z := st.bandAt(s.From).xSub, st.bandAt(s.To).z
		last := st.localLast[i]
		for j, pos := range s.Pos {
			v := x[s.Loc[j]]
			z[pos] += s.Weights[j] * (v - last[j])
			last[j] = v
		}
		st.ctx.Counter.Add(3 * float64(len(s.Pos)))
	}
}

// reflFor returns the echo header for a message to peer: the highest of the
// peer's versions this rank has incorporated, or −1 when this rank does not
// depend on the peer at all.
func (st *rankState) reflFor(peer int) float64 {
	if gi, ok := st.recvGroupByPeer[peer]; ok {
		return st.verIncorporated[gi]
	}
	return -1
}

// packVals appends the group's boundary values (the producing band's xSub
// at each segment's producer-local indices, in the group's canonical segment
// order) to buf.
func (st *rankState) packVals(g *plan.PeerIO, buf []float64) []float64 {
	for _, s := range g.Segs {
		x := st.bandAt(s.From).xSub
		for _, li := range s.Loc {
			buf = append(buf, x[li])
		}
	}
	return buf
}

// iterate runs the computation step (step 2) over every owned band:
// BLoc = BSub − Dep·z, solve the subsystem (exactly, or by the scheduled
// two-stage sweeps), measure the successive-iterate difference. The whole
// step is one pure compute segment with an analytically known cost, so it is
// declared up front and its arithmetic overlaps other ranks' segments on the
// worker pool.
func (st *rankState) iterate() error {
	cost := 0.0
	twoStage := false
	for _, b := range st.bands {
		if ts := b.ts; ts != nil && !ts.fellBack {
			ts.sweeps = ts.sched.next(st.iter)
			ts.err = nil
			cost += ts.stageCost(b)
			twoStage = true
		} else {
			cost += b.stepFlops
		}
	}
	st.diverged = nil
	start := st.c.Now()
	st.c.ComputeSeg(cost, st.stepFn)
	if st.diverged != nil {
		return fmt.Errorf("%s: %w at iteration %d", st.who(st.diverged), ErrDiverged, st.iter)
	}
	if twoStage {
		if err := st.finishInner(start); err != nil {
			return err
		}
	}
	for i, b := range st.bands {
		if i == 0 || b.diff > st.diff {
			st.diff = b.diff
		}
	}
	return nil
}

// step is the segment body run by iterate on the worker pool (referenced via
// stepFn; it must touch only this rank's state, never the simulator).
func (st *rankState) step() {
	cnt := st.ctx.Counter
	for _, b := range st.bands {
		if b.ts != nil && !b.ts.fellBack {
			b.sweep(cnt)
		} else if !st.solveExact(b, cnt) {
			return
		}
	}
}

// solveExact is one band's exact step; it reports false (and records the
// band in diverged) on a non-finite iterate.
func (st *rankState) solveExact(b *bandState, cnt *vec.Counter) bool {
	copy(b.rhs, b.bSub)
	if len(b.depCols) > 0 {
		b.depMat.MulVecSub(b.rhs, b.z, cnt)
	}
	b.fact.Solve(b.xSub, b.rhs, cnt)
	if !vec.AllFinite(b.xSub) {
		st.diverged = b
		return false
	}
	b.diff = vec.DiffNormInf(b.xSub, b.xPrev, cnt)
	copy(b.xPrev, b.xSub)
	return true
}

// ship sends this rank's boundary components to their dependents (step 3):
// one packed message per peer group, all owned bands coalesced. In gateway
// mode the inter-cluster groups are batched through the cluster aggregator
// instead. Segments between two owned bands are applied locally.
func (st *rankState) ship() error {
	for gi := range st.rp.Send {
		g := &st.rp.Send[gi]
		if st.gw != nil && st.gw.sendViaGw[gi] {
			continue
		}
		st.sendBuf = append(st.sendBuf[:0], float64(st.iter), st.reflFor(g.Peer))
		st.sendBuf = st.packVals(g, st.sendBuf)
		if err := st.c.SendFloats(g.Peer, tagX, st.sendBuf); err != nil {
			return err
		}
	}
	if st.gw != nil {
		if err := st.gw.shipInter(st); err != nil {
			return err
		}
	}
	st.applyLocal()
	return nil
}

// msRank is the body of Algorithm 1 executed by every rank: one engine loop
// — iterate, ship, exchange — over the rank's owned bands, parameterized by
// the exchange policy (synchronous barrier, asynchronous freshest-drain, or
// bounded staleness) and the stopping criterion (successive iterate or true
// residual). A one-shot solve and a session's first Resolve build the rank
// state; later Resolves refresh the state the session keeps (s != nil).
func msRank(c *mp.Comm, j *job, s *Session, refresh bool, pend *Pending) error {
	o := j.o
	c.Tree = o.TreeCollectives
	c.Topo = o.TopoCollectives
	ctx := simctx.New()
	ctx.Obs = obs.NewScope(c.Proc().Obs(), c.Proc().Name)
	if o.TrackMemory {
		ctx.Mem = c.Proc()
	}
	c.AttachCtx(ctx)
	applyFaultOptions(c, o)

	rank := c.Rank()
	if s != nil && s.ranks[rank] != nil {
		sr := s.ranks[rank]
		factTime, err := s.refreshRank(sr, c, ctx, j.b, refresh)
		if err != nil {
			return err
		}
		return msRankRun(sr.st, pend, factTime)
	}
	st, factTime, err := newRankState(c, ctx, j.a, j.b, j.d, j.cp, o)
	if err != nil {
		return err
	}
	if s != nil {
		s.ranks[rank] = &sessionRank{st: st, gen: -1}
	}
	return msRankRun(st, pend, factTime)
}

// msRankRun drives an initialized rank state — fresh, or refreshed by a
// session — through the engine loop and the final gather.
func msRankRun(st *rankState, pend *Pending, factTime float64) error {
	c, o := st.c, st.o

	var det detect.Detector
	var err error
	if o.Async {
		det, err = detect.New(o.Detector, c)
		if err != nil {
			return err
		}
	}
	policy := newExchangePolicy(o, det)
	stop := newStopper(o)
	ad := newAdaptRank(st)

	converged := false
	aborted := false
	for st.iter < o.MaxIter {
		st.iter++
		iterStart := c.Now()
		if err := st.iterate(); err != nil {
			return err
		}
		if err := st.ship(); err != nil {
			return err
		}
		out, err := policy.exchange(st, stop)
		if err != nil {
			return err
		}
		if sc := st.ctx.Observe(); sc != nil {
			sc.Span(obs.Span{Cat: obs.CatIter, Name: "iter", Iter: st.iter,
				Start: iterStart, End: c.Now()})
		}
		if out == outConverged {
			converged = true
			break
		}
		if out == outAborted {
			aborted = true
			break
		}
		// The adaptive epoch runs between iterations, after the convergence
		// decision, so a resplit never races the exchange: every rank reaches
		// it in lockstep and the next iteration runs whole on the new bands.
		if ad != nil && ad.due(st.iter) {
			if err := ad.epoch(st, pend); err != nil {
				return err
			}
		}
	}
	if !converged && !aborted && o.Async {
		// Hit the cap: tell everyone to stop so the run terminates.
		for m := 0; m < c.Size(); m++ {
			if m != st.rank {
				if err := c.Signal(m, tagAbort); err != nil {
					return err
				}
			}
		}
	}

	// Assemble the solution from the owned segments at rank 0, one message
	// per owned band in band order. Read the decomposition through st: a
	// resplit replaced it mid-run, and all ranks hold the same final bands.
	d := st.d
	if st.rank != 0 {
		for slot, b := range st.bands {
			if err := c.SendFloats(0, gatherTag(slot), b.owned()); err != nil {
				return err
			}
		}
	} else {
		x := make([]float64, d.N)
		for _, b := range st.bands {
			copy(x[b.band.Start:b.band.End], b.owned())
		}
		for k := 0; k < d.L(); k++ {
			m := st.cp.Owner[k]
			if m == 0 {
				continue
			}
			pk, err := st.recvCritical(m, gatherTag(k/c.Size()), "solution segment")
			if err != nil {
				return err
			}
			mb := d.Bands[k]
			copy(x[mb.Start:mb.End], pk.Floats)
			c.Release(pk)
		}
		pend.res.X = x
	}

	rec := rankRecord{iter: st.iter, factTime: factTime, converged: converged,
		factFlops: st.factFlops, innerSweeps: st.innerSweeps,
		innerFlops: st.innerFlops, fallbacks: st.fallbacks}
	if ad != nil {
		rec.resplitFlops = ad.flops
	}
	pend.finishRank(c, st.ctx, rec)
	return nil
}
