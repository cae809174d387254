package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupStores is how many stores setup_s and heap_mb measure: the run's
// own store, then each store's successor (see successor), the store
// that would replace it. A median over five keeps one seed's store out
// of the metric.
const setupStores = 5

// setupSeconds is the least build wall time a run measures: about a
// hundred library builds of ~10 ms, cycling through the five stores,
// or each aged store once.
const setupSeconds = 1.0

// kernelSeconds is hostKernel's typical time on the reference machine
// (4.5 ms on a quiet host, 10 ms on a loaded one). setup_s is in those
// seconds: each build's wall time is scaled by kernelSeconds over the
// kernel's time beside it.
const kernelSeconds = 0.0055

// timeSetups times store builds of the workload's seed chain until it
// has built each of the first setupStores stores and spent minSeconds
// of wall time. It returns each build's time in reference seconds and
// the live heap of each of the first setupStores stores, and logs the
// median raw wall time and host factor to standard error.
//
// On the shared reference host a library build takes 9 ms in one
// period and 15 ms in the next, and the periods last from seconds to
// minutes, so a median of raw build times moves with the other tenants'
// load. The map-building hostKernel slows with the builds: in a 40 s
// stretch whose library-build medians ranged from 8.5 to 15.0 ms, build
// time over kernel time ranged from 1.39 to 1.52, and over ten runs
// per workload setup_s spread 1–2% (libraries) and 11% (aged store).
func timeSetups(w *workload, seed uint64, sz sizes, minSeconds float64) (times, heaps []float64, err error) {
	chain := make([]uint64, setupStores)
	for i := range chain {
		chain[i], seed = seed, successor(seed)
	}
	var walls, factors []float64
	ref := hostKernel()
	for i, total := 0, 0.0; i < setupStores || total < minSeconds; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := w.build(chain[i%setupStores], sz, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		secs := time.Since(t0).Seconds()
		total += secs
		if i < setupStores {
			heaps = append(heaps, liveHeap())
		}
		runtime.KeepAlive(f)
		after := hostKernel()
		factor := (ref + after) / 2 / kernelSeconds
		ref = after
		walls = append(walls, secs)
		factors = append(factors, factor)
		times = append(times, secs/factor)
	}
	fmt.Fprintf(os.Stderr, "bench: %s setup: %d builds, median wall %.4f s, host factor %.3f\n",
		w.name, len(walls), percentile(walls, 0.5), percentile(factors, 0.5))
	return times, heaps, nil
}

// liveHeap is the heap still reachable after a forced collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

var kernelSink uint64

// hostKernel times a fixed map-building loop after a forced collection:
// 60,000 inserts of pseudo-random keys into a map that grows from 1024
// entries, the hashing, allocation and scattered memory traffic a store
// build is made of.
func hostKernel() float64 {
	runtime.GC()
	t0 := time.Now()
	m := make(map[uint64]uint64, 1024)
	x := uint64(1)
	for range 60000 {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>40] += x
	}
	for k, v := range m {
		kernelSink += k ^ v
	}
	return time.Since(t0).Seconds()
}
