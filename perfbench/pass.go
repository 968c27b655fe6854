package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dslu"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/splu"
	"repro/internal/vec"
	"repro/internal/vgrid"
)

// checkGate is the relative-residual gate internal/experiments applies to
// every solve; the benchmark applies it to the relative error against the
// manufactured solution too.
const checkGate = 1e-4

// layers holds one pass's per-layer counters (from the results and stats
// the layers export) and host times (from the benchmark's own clocks).
type layers struct {
	// core, plan and adapt.
	coreIters                                 int64
	coreVirtual, coreFactorVirtual, coreFlops float64
	launchNs                                  int64
	resplits, rejected                        int64
	resplitFlops                              float64
	// mp: solver traffic and the virtual time ranks spent blocked.
	msgs, bytes, interMsgs, interBytes int64
	waitVirtual, procClock             float64
	// resultMsgsLost is how many messages core.Result.MsgsSent is short of
	// the engine's per-process count.
	resultMsgsLost int64
	// vgrid: host time in Engine.Run for multisplitting solves, scheduler
	// volume and, on sharded runs, lane telemetry.
	runNs                int64
	commits, syncs       int64
	laneOpens, laneSlots int64
	wanTurns             int64
	grantWait            float64
	// dslu: the distributed direct solver, Launch through Engine.Run.
	dsluCalls, dsluNs, dsluFill, dsluBytes int64
	dsluVirtual                            float64
	// obs: recorded spans and the exporters' host time and allocations.
	obsSpans                                    int64
	traceNs, traceBytes, metricsNs, cpNs, winNs int64
	exportMallocs                               uint64
}

// fingerprint is the deterministic outcome of a pass's multisplitting
// solves; every pass of a run, traced or not, must reproduce it exactly.
// The dslu solve is left out: its RCM preprocessing breaks degree ties in
// map order, so its fill and virtual time vary between identical runs (the
// benchmark reports that variation instead).
type fingerprint struct {
	virtual float64
	iters   int64
	msgs    int64
	commits int64
}

func (l *layers) fingerprint() fingerprint {
	return fingerprint{virtual: l.coreVirtual, iters: l.coreIters, msgs: l.msgs, commits: l.commits}
}

// passResult is one pass of a workload: every job solved once.
type passResult struct {
	// wall and rt cover the solves only; peakHeap is the mean over the
	// pass's solves of each solve's peak heap.
	wall     time.Duration
	rt       rtSnap
	peakHeap float64
	virtual  float64
	solves   int
	failures []string
	residMax float64
	lay      layers
	kern     *kernelStats // nil on untraced passes
}

// sinks are the in-memory destinations of the obs exports, reused across
// passes.
type sinks struct {
	trace, metricsJSON, metricsCSV, winJSON, winCSV bytes.Buffer
}

// runPass solves every job of the workload once on the given inputs. A
// non-nil tracer records spans and routes the band factorizations through a
// timing splu.Direct.
func runPass(w *workload, in inputs, tr *tracer, sk *sinks, firstSolve int32) passResult {
	var p passResult
	if tr != nil {
		p.kern = &kernelStats{}
	}
	root := tr.open("bench.pass", 0, 0)
	defer root.close()
	var peaks float64
	for i := range w.jobs {
		// Each solve starts on a collected heap, outside its timed region,
		// so no solve pays for another's garbage or inherits its peak.
		runtime.GC()
		peak := startPeak()
		r0 := readRT()
		start := time.Now()
		vt, resid, err := runJob(&w.jobs[i], in.plats[i].Platform, in.plats[i].Hosts, in.faults[i], tr, root.id, firstSolve+int32(i), p.kern, sk, &p.lay)
		p.wall += time.Since(start)
		p.rt = p.rt.add(readRT().sub(r0))
		peaks += float64(peak.Stop())
		p.solves++
		p.virtual += vt
		p.residMax = math.Max(p.residMax, resid)
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("%s: %v", w.jobs[i].label, err))
		}
	}
	p.peakHeap = peaks / float64(len(w.jobs))
	return p
}

// engine builds the job's engine on a fresh platform: default worker
// count, its lane mode and telemetry, its fault plan and, when observed, a
// recorder.
func (j *job) engine(pl *vgrid.Platform, fault *vgrid.FaultPlan) (*vgrid.Engine, *obs.Recorder) {
	e := vgrid.NewEngine(pl)
	if j.sharded {
		e.SetLanes(0)
	}
	if j.laneWidth > 0 {
		e.SetLaneTelemetry(j.laneWidth)
	}
	if fault != nil {
		e.SetFaultPlan(fault)
	}
	var rec *obs.Recorder
	if j.observe {
		rec = &obs.Recorder{}
		e.Observe(rec)
	}
	return e, rec
}

// runJob runs one solve and checks it: convergence, the relative residual
// and the relative error against the manufactured solution. It returns the
// virtual makespan and the relative residual.
func runJob(j *job, pl *vgrid.Platform, hosts []*vgrid.Host, fault *vgrid.FaultPlan, tr *tracer, parent, solve int32, ks *kernelStats, sk *sinks, lay *layers) (float64, float64, error) {
	sp := tr.open("bench.solve", parent, solve)
	defer sp.close()
	e, rec := j.engine(pl, fault)

	var x []float64
	var makespan float64
	if j.dslu {
		ds := tr.open("dslu", sp.id, solve)
		t0 := time.Now()
		pend, err := dslu.Launch(e, hosts, j.a, j.b, dslu.Options{})
		if err == nil {
			_, err = e.Run()
			pend.Finish()
		}
		lay.dsluNs += int64(time.Since(t0))
		ds.close()
		if err != nil {
			return 0, math.Inf(1), err
		}
		res := pend.Result()
		x, makespan = res.X, res.Time
		lay.dsluCalls++
		lay.dsluFill += res.FillNNZ
		lay.dsluBytes += res.BytesSent
		lay.dsluVirtual += res.Time
	} else {
		opts := j.opts
		var td *timedDirect
		if tr != nil {
			td = &timedDirect{inner: &splu.SparseLU{}, stats: ks, tr: tr, solve: solve}
			opts.Solver = td
		}
		ls := tr.open("core.launch", sp.id, solve)
		t0 := time.Now()
		pend, err := core.Launch(e, hosts, j.a, j.b, opts)
		lay.launchNs += int64(time.Since(t0))
		ls.close()
		if err != nil {
			return 0, math.Inf(1), err
		}
		rs := tr.open("vgrid.run", sp.id, solve)
		if td != nil {
			td.parent = rs.id
		}
		t0 = time.Now()
		end, err := e.Run()
		lay.runNs += int64(time.Since(t0))
		rs.close()
		pend.Finish()
		if err != nil {
			return 0, math.Inf(1), err
		}
		// Makespan, iterations and traffic are read from race-free sources:
		// the engine's end time (as core.Solve reports it), the per-rank
		// iteration slots and the engine's per-process counters. Ranks on
		// different scheduler lanes finish concurrently, and the summed
		// traffic fields of core.Result can lose an update then; the
		// difference is kept as a layer counter.
		res := pend.Result()
		iters := 0
		for _, it := range res.IterationsPerRank {
			iters = max(iters, it)
		}
		if !res.Converged {
			return end, math.Inf(1), fmt.Errorf("did not converge in %d iterations", iters)
		}
		x, makespan = res.X, end
		lay.coreIters += int64(iters)
		lay.coreVirtual += end
		lay.coreFactorVirtual += res.FactorTime
		lay.coreFlops += res.TotalFlops
		lay.resplits += int64(res.Resplits)
		lay.rejected += int64(res.ResplitRejected)
		lay.resplitFlops += res.ResplitFlops
		var msgs int64
		for _, st := range e.Stats() {
			msgs += st.MsgsSent
			lay.bytes += st.BytesSent
			lay.interMsgs += st.InterMsgs
			lay.interBytes += st.InterBytes
			lay.waitVirtual += st.BlockedTime
			lay.procClock += st.Clock
		}
		lay.msgs += msgs
		lay.resultMsgsLost += msgs - res.MsgsSent
		commits, syncs := e.EventStats()
		lay.commits += commits
		lay.syncs += syncs
		if e.Lanes() > 1 {
			for _, row := range e.LaneTelemetry() {
				lay.laneOpens += row.LaneOpens
				lay.laneSlots += row.Windows * int64(e.Lanes())
				lay.wanTurns += row.WanTurns
				lay.grantWait += row.WanGrantWait
			}
		}
		if rec != nil {
			if err := export(rec, makespan, obsWindow*makespan, tr, sp.id, solve, sk, lay); err != nil {
				return makespan, math.Inf(1), err
			}
		}
	}

	ck := tr.open("bench.check", sp.id, solve)
	defer ck.close()
	resid := relResidual(j.a, x, j.b)
	if resid > checkGate {
		return makespan, resid, fmt.Errorf("relative residual %.3g above %g", resid, checkGate)
	}
	if e := relError(x, j.xtrue); e > checkGate {
		return makespan, resid, fmt.Errorf("relative error %.3g against the manufactured solution above %g", e, checkGate)
	}
	return makespan, resid, nil
}

// export runs every obs exporter into the in-memory sinks, timing each.
func export(rec *obs.Recorder, makespan, width float64, tr *tracer, parent, solve int32, sk *sinks, lay *layers) error {
	lay.obsSpans += int64(rec.NumSpans())
	m0 := readRT()
	timed := func(name string, ns *int64, fn func() error) error {
		sp := tr.open(name, parent, solve)
		t0 := time.Now()
		err := fn()
		*ns += int64(time.Since(t0))
		sp.close()
		return err
	}
	err := timed("obs.trace_json", &lay.traceNs, func() error {
		sk.trace.Reset()
		return obs.WriteTraceJSON(&sk.trace, rec)
	})
	lay.traceBytes += int64(sk.trace.Len())
	if err == nil {
		err = timed("obs.metrics", &lay.metricsNs, func() error {
			m := obs.ComputeMetrics(rec, makespan)
			sk.metricsJSON.Reset()
			sk.metricsCSV.Reset()
			if err := m.WriteJSON(&sk.metricsJSON); err != nil {
				return err
			}
			return m.WriteCSV(&sk.metricsCSV)
		})
	}
	var cp *obs.CPReport
	if err == nil {
		err = timed("obs.critical_path", &lay.cpNs, func() error {
			cp = obs.CriticalPath(rec)
			return nil
		})
	}
	if err == nil {
		err = timed("obs.windows", &lay.winNs, func() error {
			wm := obs.ComputeWindows(rec, width, makespan, cp)
			sk.winJSON.Reset()
			sk.winCSV.Reset()
			if err := wm.WriteJSON(&sk.winJSON); err != nil {
				return err
			}
			return wm.WriteCSV(&sk.winCSV)
		})
	}
	lay.exportMallocs += readRT().sub(m0).allocObjs
	if err != nil {
		return fmt.Errorf("obs export: %w", err)
	}
	return nil
}

// relResidual returns ‖Ax − b‖∞ / ‖b‖∞.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	if len(x) != len(b) {
		return math.Inf(1)
	}
	var c vec.Counter
	y := make([]float64, len(b))
	a.MulVec(y, x, &c)
	num, den := 0.0, 0.0
	for i := range y {
		num = math.Max(num, math.Abs(y[i]-b[i]))
		den = math.Max(den, math.Abs(b[i]))
	}
	if math.IsNaN(num) {
		return math.Inf(1)
	}
	return num / den
}

// relError returns ‖x − xtrue‖∞ / ‖xtrue‖∞.
func relError(x, xtrue []float64) float64 {
	num, den := 0.0, 0.0
	for i := range xtrue {
		num = math.Max(num, math.Abs(x[i]-xtrue[i]))
		den = math.Max(den, math.Abs(xtrue[i]))
	}
	if math.IsNaN(num) {
		return math.Inf(1)
	}
	return num / den
}
