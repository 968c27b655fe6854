package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// perLayer computes the per-layer metrics. Host times come from the traced
// passes (medians); counters are deterministic and come from the first
// traced pass; Go runtime metrics come from the untraced passes, which the
// tracer's own allocations do not distort.
func perLayer(untraced, traced []passResult, tr *tracer) map[string]metric {
	l := traced[0].lay
	k := traced[0].kern
	med := func(f func(p passResult) float64) float64 { return medianOf(traced, f) }
	sec := func(f func(l layers) int64) float64 {
		return med(func(p passResult) float64 { return float64(f(p.lay)) / 1e9 })
	}
	factorBusy := med(func(p passResult) float64 { return float64(p.kern.factorNs.Load()) / 1e9 })
	solveBusy := med(func(p passResult) float64 { return float64(p.kern.solveNs.Load()) / 1e9 })
	runS := sec(func(l layers) int64 { return l.runNs })

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("splu.factor.calls", float64(k.factorCalls.Load()), "count")
	put("splu.factor.busy_s", factorBusy, "s")
	put("splu.factor.flops", k.factorFlops.Load(), "flop")
	put("splu.factor.bytes", float64(k.factorBytes.Load()), "B-computed")
	put("splu.solve.calls", float64(k.solveCalls.Load()), "count")
	put("splu.solve.busy_s", solveBusy, "s")
	put("splu.solve.flops", k.solveFlops.Load(), "flop")
	put("splu.solve.bytes", float64(k.solveBytes.Load()), "B-computed")
	put("splu.solve.gflops", ratio(k.solveFlops.Load(), solveBusy)/1e9, "Gflop/s")

	put("dslu.calls", float64(l.dsluCalls), "count")
	put("dslu.wall_s", sec(func(l layers) int64 { return l.dsluNs }), "s")
	put("dslu.fill_nnz", float64(l.dsluFill), "count")
	put("dslu.bytes", float64(l.dsluBytes), "B")
	put("dslu.virtual_s", l.dsluVirtual, "s")

	put("core.iterations", float64(l.coreIters), "count")
	put("core.virtual_s", l.coreVirtual, "s")
	put("core.factor_virtual_s", l.coreFactorVirtual, "s")
	put("core.flops", l.coreFlops, "flop")
	put("core.launch_s", sec(func(l layers) int64 { return l.launchNs }), "s")
	put("adapt.resplits", float64(l.resplits), "count")
	put("adapt.rejected", float64(l.rejected), "count")
	put("adapt.rejected_share", ratio(float64(l.rejected), float64(l.resplits+l.rejected)), "1")
	put("adapt.resplit_flops", l.resplitFlops, "flop")

	put("mp.msgs", float64(l.msgs), "count")
	put("mp.bytes", float64(l.bytes), "B")
	put("mp.inter_msgs", float64(l.interMsgs), "count")
	put("mp.inter_bytes", float64(l.interBytes), "B")
	put("mp.wait_virtual_s", l.waitVirtual, "s")
	put("mp.wait_share", ratio(l.waitVirtual, l.procClock), "1")

	put("vgrid.run_s", runS, "s")
	put("vgrid.commits", float64(l.commits), "count")
	put("vgrid.syncs", float64(l.syncs), "count")
	put("vgrid.us_per_commit", ratio(runS*1e6, float64(l.commits)), "us")
	put("vgrid.kernel_share", ratio(factorBusy+solveBusy, runS), "1")
	put("vgrid.lane.occupancy", ratio(float64(l.laneOpens), float64(l.laneSlots)), "1")
	put("vgrid.lane.wan_turns", float64(l.wanTurns), "count")
	put("vgrid.lane.grant_wait_virtual_s", l.grantWait, "s")

	put("obs.spans", float64(l.obsSpans), "count")
	put("obs.trace_json.s", sec(func(l layers) int64 { return l.traceNs }), "s")
	put("obs.trace_json.bytes", float64(l.traceBytes), "B")
	put("obs.metrics.s", sec(func(l layers) int64 { return l.metricsNs }), "s")
	put("obs.critical_path.s", sec(func(l layers) int64 { return l.cpNs }), "s")
	put("obs.windows.s", sec(func(l layers) int64 { return l.winNs }), "s")
	mallocs := med(func(p passResult) float64 { return float64(p.lay.exportMallocs) })
	put("obs.export.mallocs", mallocs, "count")
	put("obs.export.mallocs_per_span", ratio(mallocs, float64(l.obsSpans)), "1")

	put("go.gc_cpu_s", medianOf(untraced, func(p passResult) float64 { return p.rt.gcCPU }), "s")
	put("go.gc_cycles", medianOf(untraced, func(p passResult) float64 { return float64(p.rt.gcCycles) }), "count")
	put("go.mallocs", medianOf(untraced, func(p passResult) float64 { return float64(p.rt.allocObjs) }), "count")

	wallT := med(func(p passResult) float64 { return p.wall.Seconds() })
	wallU := medianOf(untraced, func(p passResult) float64 { return p.wall.Seconds() })
	put("trace.overhead", wallT/wallU-1, "1")
	put("trace.spans", float64(len(tr.spans))/float64(len(traced)), "count")

	// Self time per layer: each span's duration minus what its child spans
	// cover, summed by layer and averaged over the traced passes.
	self := map[string]float64{}
	for name, s := range tr.selfTimes() {
		self[layerOf(name)] += s / float64(len(traced))
	}
	for _, layer := range []string{"bench", "core", "vgrid", "splu", "dslu", "obs"} {
		put("self."+layer+"_s", self[layer], "s")
	}
	return m
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(span string) string {
	layer, _, _ := strings.Cut(span, ".")
	return layer
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// expectedLargest is the layer each workload was chosen to stress: kernels
// (splu + dslu) on paper, the scheduler's own time (Engine.Run minus the
// kernels inside it) on grid, obs export on observed.
var expectedLargest = map[string]string{"paper": "kernel", "grid": "vgrid", "observed": "obs"}

// printLayerSplit reports which layer's self time is largest in the traced
// passes, against the layer the workload was chosen for.
func printLayerSplit(workload string, m map[string]metric) {
	split := map[string]float64{
		"kernel": m["self.splu_s"].Value + m["self.dslu_s"].Value,
		"vgrid":  m["self.vgrid_s"].Value,
		"core":   m["self.core_s"].Value,
		"obs":    m["self.obs_s"].Value,
		"bench":  m["self.bench_s"].Value,
	}
	largest := ""
	for _, k := range []string{"kernel", "vgrid", "core", "obs", "bench"} {
		if largest == "" || split[k] > split[largest] {
			largest = k
		}
	}
	verdict := "as chosen"
	if largest != expectedLargest[workload] {
		verdict = "NOT the layer this workload was chosen for (" + expectedLargest[workload] + ")"
	}
	fmt.Printf("# layer split (self s/pass): kernel %.3f, vgrid %.3f, core %.3f, obs %.3f, bench %.3f; largest %s: %s\n",
		split["kernel"], split["vgrid"], split["core"], split["obs"], split["bench"], largest, verdict)
}

// validateExports checks that the obs exports of the last pass are
// well-formed: JSON that parses and non-empty CSV.
func validateExports(w *workload, sk *sinks) error {
	observed := false
	for _, j := range w.jobs {
		observed = observed || j.observe
	}
	if !observed {
		return nil
	}
	for name, b := range map[string][]byte{"trace": sk.trace.Bytes(), "metrics": sk.metricsJSON.Bytes(), "windows": sk.winJSON.Bytes()} {
		if !json.Valid(b) {
			return fmt.Errorf("obs %s export is not valid JSON", name)
		}
	}
	if sk.metricsCSV.Len() == 0 || sk.winCSV.Len() == 0 {
		return errors.New("obs CSV export is empty")
	}
	return nil
}
