package vgrid

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// observe attaches a fresh obs recorder to the engine.
func observe(e *Engine) *obs.Recorder {
	rec := &obs.Recorder{}
	e.Observe(rec)
	return rec
}

// runPrint is what a deterministic run must reproduce byte for byte: the
// recorder's Perfetto export, the final virtual time and the commit count.
func runPrint(t *testing.T, e *Engine, rec *obs.Recorder, vt float64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTraceJSON(&buf, rec); err != nil {
		t.Fatal(err)
	}
	commits, _ := e.EventStats()
	fmt.Fprintf(&buf, "vt=%v commits=%d\n", vt, commits)
	return buf.String()
}

// randWorkload spawns nprocs processes on the platform's first hosts, each
// executing a seeded pseudo-random mix of every scheduler-visible primitive:
// declared and deferred computes, sleeps, fate-reporting sends and
// timeout-bounded receives. The mix is a pure function of (seed, proc, step),
// so two engines running it produce the same virtual history regardless of
// scheduler implementation or worker count.
func randWorkload(e *Engine, pl *Platform, nprocs, steps int, seed int64) {
	procs := make([]*Proc, nprocs)
	for i := 0; i < nprocs; i++ {
		i := i
		procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("p%d", i), func(p *Proc) error {
			for s := 0; s < steps; s++ {
				at := p.ID*steps + s
				r := synthU01(seed, at)
				amt := synthU01(seed+1, at)
				switch {
				case r < 0.30:
					p.Compute(1e4 * (1 + 40*amt))
				case r < 0.45:
					p.ComputeDeferred(func() float64 { return 1e4 * (1 + 25*amt) })
				case r < 0.55:
					p.Sleep(2e-4 * (1 + 9*amt))
				case r < 0.80:
					dst := procs[int(amt*float64(nprocs))%nprocs]
					if dst != p {
						if _, err := p.SendFate(dst, 0, nil, 64+int(amt*512)); err != nil {
							return err
						}
					}
				default:
					p.RecvTimeout(AnySource, AnyTag, 4e-3*(1+amt))
				}
			}
			return nil
		})
	}
}

// runRandScenario executes one fault-laden randomized scenario on a
// synthetic grid and returns its run print and final virtual time. scan
// selects the O(P) reference scheduler; crossCheck makes the indexed
// scheduler verify every pick against the scan (panicking on the first
// divergence).
func runRandScenario(t *testing.T, seed int64, scan, crossCheck bool, workers int) (string, float64) {
	t.Helper()
	const nprocs, steps = 20, 50
	pl := Synthetic(nprocs, 4, 0.4, seed)
	e := NewEngine(pl)
	e.SetScanScheduler(scan)
	e.crossCheck = crossCheck
	if workers > 0 {
		e.SetWorkers(workers)
	}
	fp := NewFaultPlan(seed)
	fp.DropOnLink("wan", 0, 1, 0.3)
	fp.DegradeLink("up-site1", 0.002, 0.03, 4, 0.25)
	fp.CrashHost("g3", 0.001, 0.02)
	fp.CrashHost("g11", 0.005, 0.04)
	e.SetFaultPlan(fp)
	rec := observe(e)
	randWorkload(e, pl, nprocs, steps, seed)
	vt, err := e.Run()
	if err != nil {
		t.Fatalf("seed %d (scan=%v workers=%d): %v", seed, scan, workers, err)
	}
	if rec.NumSpans() == 0 {
		t.Fatalf("seed %d (scan=%v workers=%d): no spans recorded", seed, scan, workers)
	}
	return runPrint(t, e, rec, vt), vt
}

// TestSchedulerIndexMatchesScanUnderFaults is the scheduler-index property
// test: on randomized fault-laden scenarios (message loss, link degradation,
// host crash windows, deferred computes), the indexed scheduler must select
// the identical event sequence as the pre-index O(P) scan. Each scenario
// runs three ways — scan, indexed with per-pick cross-checking against the
// scan, and indexed with a worker pool — and all three must produce
// byte-identical obs exports, virtual times and commit counts.
func TestSchedulerIndexMatchesScanUnderFaults(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1030} {
		ref, refVT := runRandScenario(t, seed, true, false, 0)
		checked, vt := runRandScenario(t, seed, false, true, 0)
		if vt != refVT {
			t.Errorf("seed %d: virtual time diverged: indexed %g, scan %g", seed, vt, refVT)
		}
		if checked != ref {
			t.Errorf("seed %d: indexed run differs from scan run", seed)
		}
		pooled, pvt := runRandScenario(t, seed, false, true, 3)
		if pvt != refVT || pooled != ref {
			t.Errorf("seed %d: pooled indexed run diverged from scan (vt %g vs %g)", seed, pvt, refVT)
		}
	}
}

// syntheticGridTrace runs a ring workload with real (pooled) compute
// segments on a 256-host synthetic grid and returns the run print.
func syntheticGridTrace(t *testing.T, workers int) string {
	t.Helper()
	const hosts, rounds = 256, 4
	pl := Synthetic(hosts, 16, 0.3, 9)
	e := NewEngine(pl)
	e.SetWorkers(workers)
	rec := observe(e)
	procs := make([]*Proc, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		procs[i] = e.Spawn(pl.Hosts[i], fmt.Sprintf("ring%d", i), func(p *Proc) error {
			next := procs[(i+1)%hosts]
			prev := (i + hosts - 1) % hosts
			acc := 0.0
			for r := 0; r < rounds; r++ {
				flops := 1e5 * float64(1+(i*13+r*7)%31)
				if r%2 == 0 {
					p.ComputeFunc(flops, func() { acc += flops })
				} else {
					p.ComputeDeferred(func() float64 { acc += flops; return flops })
				}
				if err := p.Send(next, r, nil, 256); err != nil {
					return err
				}
				p.Recv(prev, r)
			}
			_ = acc
			return nil
		})
	}
	vt, err := e.Run()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if rec.NumSpans() == 0 {
		t.Fatalf("workers=%d: no spans recorded", workers)
	}
	return runPrint(t, e, rec, vt)
}

// TestSyntheticTraceByteIdenticalAcrossWorkers pins the determinism contract
// at generator scale: a 256-host synthetic grid running pooled compute
// segments produces byte-identical obs exports, virtual times and commit
// counts for 1 and N worker threads.
func TestSyntheticTraceByteIdenticalAcrossWorkers(t *testing.T) {
	ref := syntheticGridTrace(t, 1)
	for _, workers := range []int{2, 4} {
		if got := syntheticGridTrace(t, workers); got != ref {
			t.Errorf("trace for workers=%d differs from workers=1", workers)
		}
	}
}

// deferredLateTrace runs the deferred lower-bound scenario and returns its
// run print and recorder: process A dispatches a deferred compute whose true
// cost (resolved only when the worker finishes, well after the scheduler
// first considers A's optimistic bound) lands far beyond process B's
// interleaved events.
func deferredLateTrace(t *testing.T, workers int) (string, *obs.Recorder) {
	t.Helper()
	pl := NewPlatform()
	ha := pl.AddHost("ha", 1e6, 0)
	hb := pl.AddHost("hb", 1e6, 0)
	hc := pl.AddHost("hc", 1e6, 0)
	l := NewLink("wire", 1e-5, 1e8)
	pl.SetRoute(ha, hc, l)
	pl.SetRoute(hb, hc, l)
	pl.SetRoute(ha, hb, l)
	e := NewEngine(pl)
	e.SetWorkers(workers)
	rec := observe(e)
	var c *Proc
	a := e.Spawn(ha, "A", func(p *Proc) error {
		// The optimistic next-event bound is the dispatch clock (t=0); the
		// true cost resolves to t=0.005, after every event of B. The
		// wall-clock sleep keeps the segment physically unfinished when the
		// scheduler's first pick lands on the bound.
		p.ComputeDeferred(func() float64 {
			time.Sleep(2 * time.Millisecond)
			return 5000
		})
		return p.Send(c, 0, nil, 8)
	})
	e.Spawn(hb, "B", func(p *Proc) error {
		for i := 0; i < 5; i++ {
			p.Sleep(5e-4)
			if err := p.Send(c, 1, nil, 8); err != nil {
				return err
			}
		}
		return nil
	})
	c = e.Spawn(hc, "C", func(p *Proc) error {
		for i := 0; i < 5; i++ {
			p.Recv(1, 1)
		}
		p.Recv(a.ID, 0)
		return nil
	})
	vt, err := e.Run()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return runPrint(t, e, rec, vt), rec
}

// TestDeferredLowerBoundResolvesLate is the regression test for the deferred
// lower-bound subtlety: when a pick lands on a deferred segment's optimistic
// bound, the scheduler must collect the true cost and re-pick instead of
// committing — A sends at its true cost (t=0.005), after B's five
// interleaved sends, and the run is byte-identical with and without a worker
// pool.
func TestDeferredLowerBoundResolvesLate(t *testing.T) {
	ref, _ := deferredLateTrace(t, 1)
	got, rec := deferredLateTrace(t, 2)
	if got != ref {
		t.Fatalf("deferred run differs between 1 and 2 workers:\n1: %s\n2: %s", ref, got)
	}
	aSend, lastBSend := -1.0, -1.0
	for _, s := range rec.Spans() {
		if s.Cat != obs.CatSend {
			continue
		}
		switch s.Track {
		case "A":
			aSend = s.Start
		case "B":
			lastBSend = max(lastBSend, s.Start)
		}
	}
	if aSend < 0 || lastBSend < 0 {
		t.Fatalf("sends missing from the recorder:\n%s", got)
	}
	if math.Abs(aSend-0.005) > 1e-12 || aSend < lastBSend {
		t.Errorf("deferred process committed at its optimistic bound: A sends at %g, B's last send at %g", aSend, lastBSend)
	}
}
