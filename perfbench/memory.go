package main

import (
	"runtime/metrics"
	"time"
)

// rtSnap is a reading of the Go runtime counters the benchmark reports.
type rtSnap struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU                           float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRT() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{a.allocBytes + b.allocBytes, a.allocObjs + b.allocObjs, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU}
}

// peakSampler tracks the peak Go heap (bytes in live and not-yet-swept heap
// objects) over one solve by polling runtime/metrics.
type peakSampler struct {
	stop chan struct{}
	done chan uint64
}

const peakInterval = time.Millisecond

func startPeak() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(peakInterval)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-p.stop:
				metrics.Read(s)
				p.done <- max(peak, s[0].Value.Uint64())
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// Stop ends the sampler, waits for its goroutine and returns the peak.
func (p *peakSampler) Stop() uint64 {
	close(p.stop)
	return <-p.done
}
