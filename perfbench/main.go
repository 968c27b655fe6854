// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (paper, grid or observed) as a closed loop of back-to-back
// solves from a single client for a fixed host-time budget, checks every
// solution, and prints each metric by name with its unit; the last line of
// standard output is a JSON summary. With -trace 0 it reports the
// end-to-end metrics of untraced passes; with -trace 1 it alternates
// untraced and traced passes and reports per-layer metrics, measured from
// outside the program: spans around calls into public entry points, a
// timing splu.Direct plugged in through core.Options.Solver, and the
// counters the layers already export.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run generates its inputs; setup_s is the
// median.
const setupReps = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "paper", "workload: paper, grid or observed")
	seed := flag.Int64("seed", 1, "workload seed: drives every generator (matrices, grid host speeds, degraded host)")
	seconds := flag.Float64("seconds", 20, "host seconds of measured passes")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced passes")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	if *traced != 0 && *traced != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}

	var w *workload
	var in inputs
	setup := make([]float64, setupReps)
	for r := range setup {
		runtime.GC()
		t0 := time.Now()
		var err error
		w, err = newWorkload(*name, *seed, benchSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		in = w.build()
		setup[r] = time.Since(t0).Seconds()
	}
	fmt.Printf("# perfbench %s seed %d: nproc %d, GOMAXPROCS %d, %s/%s, %s\n",
		w.name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())

	var sk sinks
	solveID := int32(1)
	next := func(tr *tracer) passResult {
		p := runPass(w, in, tr, &sk, solveID)
		solveID += int32(len(w.jobs))
		in = w.build() // fresh grids for the next pass, outside the timed region
		return p
	}

	// A warm-up pass lets the heap and the worker pool reach steady state;
	// it is checked like every other pass but not timed.
	warm := next(nil)
	if err := validateExports(w, &sk); err != nil {
		warm.failures = append(warm.failures, err.Error())
	}
	all := []passResult{warm}

	var untraced, tracedPasses []passResult
	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	budget := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	for len(untraced) == 0 || (tr != nil && len(tracedPasses) == 0) || time.Since(start) < budget {
		p := next(nil)
		untraced = append(untraced, p)
		all = append(all, p)
		if tr != nil {
			p := next(tr)
			tracedPasses = append(tracedPasses, p)
			all = append(all, p)
		}
	}

	s := summary{Correct: true, Metrics: map[string]metric{}}
	ref := warm.lay.fingerprint()
	residMax := 0.0
	dsluLo, dsluHi := warm.lay.dsluVirtual, warm.lay.dsluVirtual
	lostPasses := 0
	for i, p := range all {
		s.Attempted += p.solves
		s.Failed += len(p.failures)
		for _, f := range p.failures {
			fmt.Printf("FAIL pass %d: %s\n", i, f)
		}
		dsluLo, dsluHi = min(dsluLo, p.lay.dsluVirtual), max(dsluHi, p.lay.dsluVirtual)
		if p.lay.resultMsgsLost != 0 {
			lostPasses++
		}
		if fp := p.lay.fingerprint(); fp != ref {
			s.Correct = false
			fmt.Printf("FAIL pass %d is not deterministic: %+v, warm-up gave %+v\n", i, fp, ref)
		}
		residMax = max(residMax, p.residMax)
	}
	if s.Failed > 0 {
		s.Correct = false
	}
	if lostPasses > 0 {
		fmt.Printf("# note: in %d of %d passes core.Result.MsgsSent disagreed with the engine's per-process message counts (ranks on concurrent lanes update it unsynchronized); mp.* uses the engine's counts\n", lostPasses, len(all))
	}
	if dsluHi != dsluLo {
		fmt.Printf("# note: dslu virtual time is not reproducible across identical passes: %.6f to %.6f s (RCM tie-break in map order)\n", dsluLo, dsluHi)
	}

	e2e := endToEnd(untraced, setup)
	fmt.Printf("# end-to-end, untraced: %d measured passes of %d solves each (closed loop, one client), medians over passes\n",
		len(untraced), len(w.jobs))
	printMetrics(e2e)
	walls := make([]float64, len(untraced))
	for i, p := range untraced {
		walls[i] = p.wall.Seconds()
	}
	sort.Float64s(walls)
	fmt.Printf("# wall_s per pass: n %d, min %.4f, median %.4f, max %.4f s\n", len(walls), walls[0], median(walls), walls[len(walls)-1])
	fmt.Printf("%-28s %14.6g %s\n", "residual_max", residMax, "1")
	fmt.Printf("%-28s %14d %s\n", "solves", s.Attempted, "count")
	fmt.Printf("%-28s %14d %s\n", "solves_failed", s.Failed, "count")

	if tr == nil {
		s.Metrics = e2e
	} else {
		s.Metrics = perLayer(untraced, tracedPasses, tr)
		fmt.Printf("# per-layer, traced: %d traced passes alternated with %d untraced\n", len(tracedPasses), len(untraced))
		printMetrics(s.Metrics)
		printLayerSplit(w.name, s.Metrics)
		path := filepath.Join(*out, fmt.Sprintf("perfbench-%s-spans.csv", w.name))
		err := os.MkdirAll(*out, 0o755)
		if err == nil {
			err = tr.write(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
		}
	}

	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !s.Correct {
		return 1
	}
	return 0
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ps []passResult, f func(p passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// endToEnd computes the metrics a user sees from the untraced passes, as
// medians over the passes.
func endToEnd(ps []passResult, setup []float64) map[string]metric {
	return map[string]metric{
		"wall_s":      {medianOf(ps, func(p passResult) float64 { return p.wall.Seconds() }), "s"},
		"setup_s":     {median(setup), "s"},
		"virtual_s":   {medianOf(ps, func(p passResult) float64 { return p.virtual }), "s"},
		"alloc_mb":    {medianOf(ps, func(p passResult) float64 { return float64(p.rt.allocBytes) / 1e6 }), "MB"},
		"peak_mem_mb": {medianOf(ps, func(p passResult) float64 { return p.peakHeap / 1e6 }), "MB"},
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
