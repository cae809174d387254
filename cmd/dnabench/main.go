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
// ROADMAP scale experiments target. The tracked wetlab studies
// (fig9a/b/c, fig10) also record the store binding cache's hit rate
// over their own reactions in the -json metrics (binding_hit_rate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
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
	shards := flag.Int("shards", 0, "assignment shards for the streaming-decode study (0 = engine default)")
	days := flag.Float64("days", 1000, "accelerated-aging horizon in days for the aging study")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonPath := flag.String("json", "", "write machine-readable timings and headline metrics to this file (e.g. BENCH_PR2.json)")
	flag.Parse()

	if *list {
		for _, id := range experimentIDs {
			fmt.Println(id)
		}
		return
	}
	if err := runExperiments(*run, *reads, *seed, *workers, *scale, *shards, *days, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "dnabench:", err)
		os.Exit(1)
	}
}

// timing is one entry of the machine-readable benchmark report.
type timing struct {
	Name    string             `json:"name"`
	Seconds float64            `json:"seconds"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// report is the schema of the -json output, the perf-trajectory record
// compared across PRs.
type report struct {
	GeneratedBy string   `json:"generated_by"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	Reads       int      `json:"reads"`
	Scale       int      `json:"scale,omitempty"`
	Timings     []timing `json:"timings"`
}

// recorder accumulates timings as experiments run.
type recorder struct {
	reads   int
	scale   int
	timings []timing
}

// track runs fn, timing it under the given name, and returns the
// recorded entry so the caller can attach headline metrics to it. Set
// metrics before the next track call: a later append may relocate the
// slice (capacity permitting it never does for the built-in ids).
func (rc *recorder) track(name string, fn func() error) (*timing, error) {
	t0 := time.Now()
	err := fn()
	rc.timings = append(rc.timings, timing{Name: name, Seconds: time.Since(t0).Seconds()})
	return &rc.timings[len(rc.timings)-1], err
}

func (rc *recorder) write(path string) error {
	r := report{
		GeneratedBy: "dnabench -json",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Reads:       rc.reads,
		Scale:       rc.scale,
		Timings:     rc.timings,
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runExperiments(run string, reads int, seed uint64, workers, scale, shards int, days float64, jsonPath string) error {
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
	rc := &recorder{reads: reads, scale: scale, timings: make([]timing, 0, 16)}
	finish := func() error {
		if jsonPath == "" {
			return nil
		}
		if err := rc.write(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d timings)\n", jsonPath, len(rc.timings))
		return nil
	}

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
		var r *experiment.AgingResult
		tm, err := rc.track("aging", func() error {
			var err error
			r, err = experiment.AgingStudy(days, 10, workers)
			return err
		})
		if err != nil {
			return err
		}
		tm.Metrics = r.Metrics()
		experiment.PrintAgingStudy(out, r)
		fmt.Fprintln(out)
	}
	if want["faults"] {
		fmt.Fprintf(out, "running the operational fault-injection campaign (workers=%d)...\n", workers)
		var r *experiment.FaultsResult
		tm, err := rc.track("faults", func() error {
			var err error
			r, err = experiment.FaultsStudy(workers)
			return err
		})
		if err != nil {
			return err
		}
		tm.Metrics = r.Metrics()
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
		fmt.Fprintf(out, "running the streaming-decode study (scale=%d, workers=%d, shards=%d)...\n", scale, workers, shards)
		var r *experiment.StreamResult
		tm, err := rc.track("decode-stream", func() error {
			var err error
			r, err = experiment.StreamStudy(scale, workers, shards)
			return err
		})
		if err != nil {
			return err
		}
		tm.Metrics = r.Metrics()
		experiment.PrintStreamStudy(out, r)
		fmt.Fprintln(out)
		// The CI smoke step advertises these gates; make them bite.
		if !r.Identical {
			return fmt.Errorf("decode-stream: streaming content not byte-identical to batch")
		}
		if r.StreamReads >= r.BatchReads {
			return fmt.Errorf("decode-stream: streaming sequenced %d reads, batch %d — early stop saved nothing",
				r.StreamReads, r.BatchReads)
		}
		if r.BigStrands > 0 && !r.BigOK {
			return fmt.Errorf("decode-stream: big-pool streaming decode failed")
		}
	}

	needWetlab := want["fig9a"] || want["fig9b"] || want["fig9c"] || want["multiplex"] ||
		want["fig10"] || want["cost"] || want["latency"] || want["updatecost"] ||
		want["decode"] || want["misprime"]
	if !needWetlab {
		return finish()
	}

	aliceBlocks := experiment.AliceBlocks
	if scale > 1 {
		aliceBlocks *= scale
	}
	t0 := time.Now()
	fmt.Fprintf(out, "building the Section 6 wetlab (13 files, %d-block Alice partition)...\n",
		aliceBlocks)
	var w *experiment.Wetlab
	buildTm, err := rc.track("build", func() error {
		var err error
		w, err = experiment.Build(experiment.Options{Seed: seed, Scale: scale})
		return err
	})
	if err != nil {
		return err
	}
	// Memory metrics for the built store: retained heap per tube strand,
	// the -scale trajectory the ROADMAP's 10^6-strand target tracks.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tubeStrands := w.Store.Tube().Len()
	buildTm.Metrics = map[string]float64{
		"tube_strands":          float64(tubeStrands),
		"heap_mb":               float64(ms.HeapAlloc) / (1 << 20),
		"heap_bytes_per_strand": float64(ms.HeapAlloc) / float64(tubeStrands),
	}
	fmt.Fprintf(out, "built in %v: %d strands in the Alice pool, %d in the IDT update pool (heap %.1f MB)\n\n",
		time.Since(t0).Round(time.Millisecond), w.AliceStrands(), w.IDTPool.Len(),
		float64(ms.HeapAlloc)/(1<<20))

	// The tracked wetlab studies record the store binding cache's hit
	// rate over their own reactions: snapBind pins the window start
	// right before a study runs (untracked studies in between — e.g.
	// multiplex — also drive the shared cache, and must not be
	// attributed to the next tracked one), bindRate closes it.
	lastBind, bindOK := w.Store.BindingStats()
	snapBind := func() {
		if bindOK {
			lastBind, _ = w.Store.BindingStats()
		}
	}
	bindRate := func(tm *timing) {
		if !bindOK {
			return
		}
		cur, _ := w.Store.BindingStats()
		rate, any := cur.HitRateSince(lastBind)
		lastBind = cur
		if !any {
			return
		}
		if tm.Metrics == nil {
			tm.Metrics = make(map[string]float64)
		}
		tm.Metrics["binding_hit_rate"] = rate
	}

	var a *experiment.Fig9aResult
	tm, err := rc.track("fig9a", func() error {
		var err error
		a, err = experiment.Fig9a(w, reads)
		return err
	})
	if err != nil {
		return err
	}
	tm.Metrics = map[string]float64{
		"uniformity_ratio": a.UniformityRatio,
		"updated_boost":    a.UpdatedBoost,
	}
	bindRate(tm)
	if want["fig9a"] {
		experiment.PrintFig9a(out, a)
		fmt.Fprintln(out)
	}

	var b *experiment.Fig9bResult
	if want["fig9b"] || want["cost"] || want["latency"] || want["updatecost"] ||
		want["decode"] || want["misprime"] {
		tm, err = rc.track("fig9b", func() error {
			var err error
			b, err = experiment.Fig9Elongated(w, a.Amplified, 531, reads)
			return err
		})
		if err != nil {
			return err
		}
		tm.Metrics = map[string]float64{
			"target_overall": b.TargetOverall(),
		}
		bindRate(tm)
	}
	if want["fig9b"] {
		experiment.PrintFig9b(out, b)
		fmt.Fprintln(out)
	}
	if want["fig9c"] {
		var c *experiment.Fig9bResult
		tm, err := rc.track("fig9c", func() error {
			var err error
			c, err = experiment.Fig9Elongated(w, a.Amplified, 144, reads)
			return err
		})
		if err != nil {
			return err
		}
		bindRate(tm)
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
		var d *experiment.DecodeResult
		tm, err := rc.track("decode", func() error {
			var err error
			d, err = experiment.Decode8(w, b, 225)
			return err
		})
		if err != nil {
			return err
		}
		tm.Metrics = map[string]float64{
			"reads_used": float64(d.ReadsUsed),
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
			var r *experiment.Fig10Result
			snapBind()
			tm, err := rc.track("fig10/"+proto, func() error {
				var err error
				r, err = experiment.Fig10(w, proto, 8*reads)
				return err
			})
			if err != nil {
				return err
			}
			tm.Metrics = map[string]float64{
				"imbalance": r.Imbalance,
			}
			bindRate(tm)
			experiment.PrintFig10(out, r)
			fmt.Fprintln(out)
		}
	}
	return finish()
}

func contains(ids []string, id string) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
