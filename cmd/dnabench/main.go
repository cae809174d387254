// Command dnabench regenerates every figure and headline number of the
// paper's evaluation (Figures 3, 9a, 9b, 9c, 10 and Sections 7-8) and
// prints them as tables with the paper's values alongside.
//
// Usage:
//
//	dnabench -run all
//	dnabench -run fig9b -reads 50000
//	dnabench -list
//
// Experiment ids: fig3, fig9a, fig9b, fig9c, multiplex, fig10, cost,
// latency, updatecost, decode, misprime, scale, tree, density, cache,
// primers, related, alloc, aging, faults, decode-stream.
//
// The -scale flag multiplies the Alice partition's block count for the
// wetlab-backed studies (fig9*, fig10, decode, ...): -scale 12 grows
// the paper's 8805-strand pool to a ~10^5-strand pool, the regime the
// ROADMAP scale experiments target.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dnastore/internal/experiment"
)

var experimentIDs = []string{
	"fig3", "fig9a", "fig9b", "fig9c", "multiplex", "fig10",
	"cost", "latency", "updatecost", "decode", "misprime",
	"scale", "tree", "density", "cache", "primers", "related", "alloc",
	"aging", "faults", "decode-stream",
}

func main() {
	run := flag.String("run", "all", "experiment id or 'all'")
	reads := flag.Int("reads", 50000, "sequencing reads per figure-9 experiment")
	seed := flag.Uint64("seed", 0, "wetlab seed (0 = default)")
	workers := flag.Int("workers", runtime.NumCPU(), "read-engine workers for the aging, faults and decode-stream studies")
	scale := flag.Int("scale", 1, "multiply the Alice partition's block count (12 ≈ a 10^5-strand pool)")
	days := flag.Float64("days", 1000, "accelerated-aging horizon in days for the aging study")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range experimentIDs {
			fmt.Println(id)
		}
		return
	}
	if err := runExperiments(*run, *reads, *seed, *workers, *scale, *days); err != nil {
		fmt.Fprintln(os.Stderr, "dnabench:", err)
		os.Exit(1)
	}
}

func runExperiments(run string, reads int, seed uint64, workers, scale int, days float64) error {
	want := map[string]bool{}
	if run == "all" {
		for _, id := range experimentIDs {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(run, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !contains(experimentIDs, id) {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
		}
	}
	out := os.Stdout

	if want["fig3"] {
		r, err := experiment.Fig3()
		if err != nil {
			return err
		}
		experiment.PrintFig3(out, r)
		fmt.Fprintln(out)
	}
	if want["density"] {
		experiment.PrintDensity(out, experiment.Density())
		fmt.Fprintln(out)
	}
	if want["primers"] {
		fmt.Fprintln(out, "running scaled-down primer search...")
		experiment.PrintPrimerYield(out, experiment.PrimerYield(40000))
		fmt.Fprintln(out)
	}
	if want["scale"] {
		r, err := experiment.Scale()
		if err != nil {
			return err
		}
		experiment.PrintScale(out, r)
		fmt.Fprintln(out)
	}
	if want["tree"] {
		r, err := experiment.TreeAblation()
		if err != nil {
			return err
		}
		experiment.PrintTreeAblation(out, r)
		fmt.Fprintln(out)
	}
	if want["related"] {
		experiment.PrintRelated(out, experiment.Related())
		fmt.Fprintln(out)
	}
	if want["alloc"] {
		r, err := experiment.Alloc()
		if err != nil {
			return err
		}
		experiment.PrintAlloc(out, r)
		fmt.Fprintln(out)
	}
	if want["cache"] {
		r, err := experiment.Cache(1024, 50000)
		if err != nil {
			return err
		}
		experiment.PrintCache(out, r)
		fmt.Fprintln(out)
	}
	if want["aging"] {
		fmt.Fprintf(out, "running the tube-aging study (%.0f accelerated days)...\n", days)
		r, err := experiment.AgingStudy(days, 10, workers)
		if err != nil {
			return err
		}
		experiment.PrintAgingStudy(out, r)
		fmt.Fprintln(out)
	}
	if want["faults"] {
		fmt.Fprintf(out, "running the operational fault-injection campaign (workers=%d)...\n", workers)
		r, err := experiment.FaultsStudy(workers)
		if err != nil {
			return err
		}
		experiment.PrintFaultsStudy(out, r)
		fmt.Fprintln(out)
		// The CI smoke step advertises these gates; make them bite.
		if !r.Identical {
			return fmt.Errorf("faults: zero-rate injector not byte-identical to the nil-injector store")
		}
		if !r.Deterministic {
			return fmt.Errorf("faults: supervised campaign diverged across worker counts")
		}
	}
	if want["decode-stream"] {
		fmt.Fprintf(out, "running the streaming-decode study (scale=%d, workers=%d)...\n", scale, workers)
		r, err := experiment.StreamStudy(scale, workers)
		if err != nil {
			return err
		}
		experiment.PrintStreamStudy(out, r)
		fmt.Fprintln(out)
		// The CI smoke step advertises these gates; make them bite.
		if !r.RangeOK {
			return fmt.Errorf("decode-stream: range read does not return the written content")
		}
		if r.StreamReads >= r.RangeBudget {
			return fmt.Errorf("decode-stream: range read sequenced %d reads of a %d-read budget — early stop saved nothing",
				r.StreamReads, r.RangeBudget)
		}
		if r.BigStrands > 0 && !r.BigOK {
			return fmt.Errorf("decode-stream: big-pool decode failed")
		}
	}

	needWetlab := want["fig9a"] || want["fig9b"] || want["fig9c"] || want["multiplex"] ||
		want["fig10"] || want["cost"] || want["latency"] || want["updatecost"] ||
		want["decode"] || want["misprime"]
	if !needWetlab {
		return nil
	}

	aliceBlocks := experiment.AliceBlocks
	if scale > 1 {
		aliceBlocks *= scale
	}
	// Retained heap of the built store, also per tube strand: the
	// -scale trajectory the ROADMAP's 10^6-strand target tracks. It is
	// the live heap the build adds, with the runtime's threads started
	// beforehand (see parkThreads). Map layouts and the runtime's
	// semaphore waiters still move it by a few hundred bytes between
	// runs, so the per-strand figure is printed in whole bytes.
	parkThreads(2 * runtime.GOMAXPROCS(0))
	before := liveHeap()
	t0 := time.Now()
	fmt.Fprintf(out, "building the Section 6 wetlab (13 files, %d-block Alice partition)...\n",
		aliceBlocks)
	w, err := experiment.Build(experiment.Options{Seed: seed, Scale: scale})
	if err != nil {
		return err
	}
	built := time.Since(t0)
	heap := float64(liveHeap()) - float64(before)
	fmt.Fprintf(out, "built in %v: %d strands in the Alice pool, %d in the IDT update pool (heap %.1f MB, %.0f B per tube strand)\n\n",
		built.Round(time.Millisecond), w.AliceStrands(), w.IDTPool.Len(),
		heap/(1<<20), heap/float64(w.Store.Tube().Len()))

	a, err := experiment.Fig9a(w, reads)
	if err != nil {
		return err
	}
	if want["fig9a"] {
		experiment.PrintFig9a(out, a)
		fmt.Fprintln(out)
	}

	var b *experiment.Fig9bResult
	if want["fig9b"] || want["cost"] || want["latency"] || want["updatecost"] ||
		want["decode"] || want["misprime"] {
		b, err = experiment.Fig9Elongated(w, a.Amplified, 531, reads)
		if err != nil {
			return err
		}
	}
	if want["fig9b"] {
		experiment.PrintFig9b(out, b)
		fmt.Fprintln(out)
	}
	if want["fig9c"] {
		c, err := experiment.Fig9Elongated(w, a.Amplified, 144, reads)
		if err != nil {
			return err
		}
		experiment.PrintFig9b(out, c)
		fmt.Fprintln(out)
	}
	if want["multiplex"] {
		m, err := experiment.Fig9Multiplex(w, a.Amplified, experiment.TwistUpdateBlocks, reads)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Multiplex PCR (Section 6.5), blocks %v (%d reads)\n", m.Blocks, m.TotalReads)
		for _, blk := range m.Blocks {
			fmt.Fprintf(out, "  block %d: %d target reads\n", blk, m.TargetReads[blk])
		}
		fmt.Fprintf(out, "  useful fraction: %.1f%% across three blocks\n\n", 100*m.TargetOverall)
	}
	if want["cost"] || want["latency"] {
		c := experiment.Cost(a, b)
		if want["cost"] {
			experiment.PrintCost(out, c)
			fmt.Fprintln(out)
		}
		if want["latency"] {
			l, err := experiment.Latency(c)
			if err != nil {
				return err
			}
			experiment.PrintLatency(out, l)
			fmt.Fprintln(out)
		}
	}
	if want["updatecost"] {
		u, err := experiment.UpdateCost(w, b)
		if err != nil {
			return err
		}
		experiment.PrintUpdateCost(out, u)
		fmt.Fprintln(out)
	}
	if want["decode"] {
		d, err := experiment.Decode8(w, b, 225)
		if err != nil {
			return err
		}
		experiment.PrintDecode(out, d)
		fmt.Fprintln(out)
	}
	if want["misprime"] {
		m, err := experiment.Misprime(w, b)
		if err != nil {
			return err
		}
		experiment.PrintMisprime(out, m)
		fmt.Fprintln(out)
	}
	if want["fig10"] {
		for _, proto := range []string{"measure-then-amplify", "amplify-then-measure"} {
			r, err := experiment.Fig10(w, proto, 8*reads)
			if err != nil {
				return err
			}
			experiment.PrintFig10(out, r)
			fmt.Fprintln(out)
		}
	}
	return nil
}

// liveHeap returns the live heap after two collections: the first
// moves sync.Pool contents to their victim caches, the second frees
// them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// parkThreads has the runtime start n OS threads, then leaves them
// idle. A thread's records (its m and g0 and their profiling stacks,
// about 5 KB) live on the Go heap, and the scheduler starts threads
// only when it needs them, so a thread first started during a
// measured build would add to the measured heap in some runs and not
// in others. Each goroutine holds its own thread while it waits, and
// unlocks before it exits, so the thread stays for later reuse.
func parkThreads(n int) {
	var started, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			started.Done()
			<-release
			runtime.UnlockOSThread()
		}()
	}
	started.Wait()
	close(release)
	done.Wait()
}

func contains(ids []string, id string) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
