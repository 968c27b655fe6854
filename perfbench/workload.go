package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/vgrid"
)

// job is one solve of a workload: its generated system, the solver and
// its options, and how to build the grid it runs on. A pass runs every job
// of the workload once, back to back (a closed loop with one client).
type job struct {
	label    string
	a        *sparse.CSR
	b, xtrue []float64
	dslu     bool
	opts     core.Options
	// platform builds a fresh grid; a platform carries link and memory
	// state, so every solve gets its own.
	platform func() *cluster.Platform
	// sharded runs one scheduler lane per cluster instead of the default
	// single lane; laneWidth > 0 turns on lane telemetry at that
	// virtual-time width.
	sharded   bool
	laneWidth float64
	// slowHost, when set, is degraded obsSlowdown× for the whole run
	// through a vgrid.FaultPlan.
	slowHost string
	// observe attaches an obs.Recorder and exports its trace, metrics,
	// critical path and windowed metrics after the run.
	observe bool
}

type workload struct {
	name string
	jobs []job
}

// inputs are one pass's freshly built grids and fault plans, one per job.
type inputs struct {
	plats  []*cluster.Platform
	faults []*vgrid.FaultPlan
}

func (w *workload) build() inputs {
	in := inputs{plats: make([]*cluster.Platform, len(w.jobs)), faults: make([]*vgrid.FaultPlan, len(w.jobs))}
	for i, j := range w.jobs {
		in.plats[i] = j.platform()
		if j.slowHost != "" {
			// The plan's seed only drives message loss, which it has none of.
			in.faults[i] = vgrid.NewFaultPlan(1).DegradeHost(j.slowHost, 0, math.Inf(1), obsSlowdown)
		}
	}
	return in
}

// subSeed derives an independent generator seed from the workload seed
// (splitmix64 finalizer), one per generator.
func subSeed(seed int64, k int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h >> 1)
}

func system(a *sparse.CSR) (b, xtrue []float64) { return gen.RHSForSolution(a) }

var workloadNames = []string{"paper", "grid", "observed"}

// size fixes the dimensions of the three workloads.
type size struct {
	// cageScale and fig3Scale divide the paper's matrix dimensions, as
	// internal/experiments does.
	cageScale, fig3Scale int
	// gridHosts, gridClusters and gridN size the grid workload's platform
	// and matrix.
	gridHosts, gridClusters, gridN int
	// obsSolves solves per pass, each on its own generated matrix, grid and
	// slowed host, so one seed's draw moves the pass less.
	obsSolves, obsHosts, obsClusters, obsN int
}

// benchSize is the benchmark's size; testSize keeps each workload's
// options and shape at a size a unit test can afford.
var (
	benchSize = size{cageScale: 48, fig3Scale: 24,
		gridHosts: 512, gridClusters: 32, gridN: 32768,
		obsSolves: 3, obsHosts: 64, obsClusters: 8, obsN: 16384}
	testSize = size{cageScale: 160, fig3Scale: 96,
		gridHosts: 32, gridClusters: 4, gridN: 2048,
		obsSolves: 1, obsHosts: 16, obsClusters: 4, obsN: 2048}
)

// newWorkload generates the named workload's matrices, right-hand sides and
// solve list from the seed.
func newWorkload(name string, seed int64, sz size) (*workload, error) {
	switch name {
	case "paper":
		return paperWorkload(seed, sz), nil
	case "grid":
		return gridWorkload(seed, sz), nil
	case "observed":
		return observedWorkload(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fig3Overlaps are the Figure 3 overlap points run, in the paper's units.
// Overlap 0 is left out: its iteration count swings by a third from one
// seed to the next and would drown every other solve of the pass.
var fig3Overlaps = []int{1000, 2000, 3000, 4000}

// paperWorkload is Table 3's cage11 row on cluster2 (distributed SuperLU,
// sync and async multisplitting) and Figure 3's overlap sweep on cluster3
// (sync and async at each overlap), speed-scaled as experiments.Figure3 is.
func paperWorkload(seed int64, sz size) *workload {
	w := &workload{name: "paper"}
	cage := gen.CageLike(39082/sz.cageScale, subSeed(seed, 1))
	cb, cx := system(cage)
	c2 := func() *cluster.Platform { return cluster.Cluster2(-1) }
	for _, v := range []struct {
		label string
		dslu  bool
		async bool
	}{{"dslu", true, false}, {"sync", false, false}, {"async", false, true}} {
		w.jobs = append(w.jobs, job{label: "cage11/cluster2/" + v.label, a: cage, b: cb, xtrue: cx,
			dslu: v.dslu, opts: core.Options{Async: v.async}, platform: c2})
	}

	s := sz.fig3Scale
	fig3 := gen.DiagDominant(gen.DiagDominantOpts{
		N: 100000 / s, Band: max(960/s, 4), PerRow: 10, Margin: 0.002, Negative: true, Seed: subSeed(seed, 2),
	})
	fb, fx := system(fig3)
	speed := 40.96 / float64(s*s*s)
	c3 := func() *cluster.Platform { return cluster.Cluster3(-1).ScaleSpeed(speed) }
	for _, ov := range fig3Overlaps {
		for _, async := range []bool{false, true} {
			mode := "sync"
			if async {
				mode = "async"
			}
			w.jobs = append(w.jobs, job{label: fmt.Sprintf("fig3/cluster3/overlap%d/%s", ov, mode),
				a: fig3, b: fb, xtrue: fx, platform: c3,
				opts: core.Options{Async: async, Overlap: 2 * ov / s}})
		}
	}
	return w
}

// slowBand is the grid matrices' generator: a slowly converging banded
// system. Every column of the band is filled (PerRow = 2·Band), which keeps
// the iteration count within a few percent from one seed to the next.
func slowBand(n int, seed int64) *sparse.CSR {
	return gen.DiagDominant(gen.DiagDominantOpts{N: n, Band: 12, PerRow: 24, Margin: 0.01, Negative: true, Seed: seed})
}

// gridWorkload is one synchronous gateway + topology-collective solve on a
// single scheduler lane of a many-host synthetic grid.
func gridWorkload(seed int64, sz size) *workload {
	a := slowBand(sz.gridN, subSeed(seed, 3))
	b, x := system(a)
	platSeed := subSeed(seed, 4)
	return &workload{name: "grid", jobs: []job{{
		label: fmt.Sprintf("synthetic%d/gateway+topo/sync", sz.gridHosts), a: a, b: b, xtrue: x,
		opts: core.Options{Gateway: true, TopoCollectives: true},
		platform: func() *cluster.Platform {
			return cluster.Synthetic(sz.gridHosts, sz.gridClusters, 0.3, platSeed)
		},
	}}}
}

// The observed workload's degradation, controller and telemetry settings.
const (
	obsSlowdown = 8.0
	// obsAdaptInterval is the iterations between controller epochs.
	obsAdaptInterval = 40
	// obsLaneWidth is the lane-telemetry bucket width in virtual seconds.
	obsLaneWidth = 0.05
	// obsWindow is the windowed-metrics width as a share of the makespan.
	obsWindow = 1.0 / 16
)

// observedWorkload is the grid workload's kind of solve on a smaller grid
// with one host slowed 8×, speed-balanced bands, adaptive resplitting, one
// scheduler lane per cluster with lane telemetry, and an obs.Recorder whose
// trace, metrics, critical path and windows are exported after the run.
// The slowed host is the fastest of a seed-chosen cluster — the host the
// balanced split hands the most rows, as the adaptive experiment does on
// cluster2 — so the controller has the same kind of imbalance to repair on
// every seed.
func observedWorkload(seed int64, sz size) *workload {
	w := &workload{name: "observed"}
	for k := 0; k < sz.obsSolves; k++ {
		a := slowBand(sz.obsN, subSeed(seed, 10+3*k))
		b, x := system(a)
		platSeed := subSeed(seed, 11+3*k)
		newPlat := func() *cluster.Platform {
			return cluster.Synthetic(sz.obsHosts, sz.obsClusters, 0.3, platSeed)
		}
		site := int(uint64(subSeed(seed, 12+3*k)) % uint64(sz.obsClusters))
		var slow *vgrid.Host
		for _, h := range newPlat().Hosts {
			if h.ClusterIndex() == site && (slow == nil || h.Speed > slow.Speed) {
				slow = h
			}
		}
		w.jobs = append(w.jobs, job{
			label: fmt.Sprintf("synthetic%d/%s-slow/adapt+lanes+obs", sz.obsHosts, slow.Name), a: a, b: b, xtrue: x,
			opts: core.Options{Gateway: true, TopoCollectives: true, Balance: true,
				Adapt: true, AdaptInterval: obsAdaptInterval},
			platform: newPlat,
			sharded:  true, laneWidth: obsLaneWidth,
			slowHost: slow.Name,
			observe:  true,
		})
	}
	return w
}
