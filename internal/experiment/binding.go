package experiment

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dnastore/internal/binding"
	"dnastore/internal/pcr"
	"dnastore/internal/pool"
)

// BindingResult reports the cross-reaction binding-reuse study: the
// same elongated-primer reaction against one tube with no provider,
// with a cold shared cache, and with a warm one — plus a full
// ReadRange through the store's own cache, cold versus warm.
type BindingResult struct {
	Species   int // tube species the reaction scores
	Reactions int // timed reactions per regime

	UncachedSeconds float64 // mean reaction, no provider (aligns everything)
	ColdSeconds     float64 // first cached reaction (aligns + fills)
	WarmSeconds     float64 // mean cached reaction after the first
	WarmHitRate     float64 // cache hit rate across the warm reactions
	ReactionSpeedup float64 // uncached / warm
	Identical       bool    // cached and uncached product pools byte-identical

	// ContentEntries is the content entries resident after the cold
	// reaction, and ContentBytesPerEntry the live heap the cold fill
	// added (the cache's rows and pattern memo included) per entry.
	ContentEntries       int
	ContentBytesPerEntry float64

	RangeBlocks      int     // blocks covered by the range read
	RangeColdSeconds float64 // first ReadRange (store cache cold)
	RangeWarmSeconds float64 // repeat ReadRange (store cache warm)
	RangeSpeedup     float64 // cold / warm
	RangeHitRate     float64 // store cache hit rate after both reads
}

// Metrics returns the study's headline numbers for the -json report.
func (r *BindingResult) Metrics() map[string]float64 {
	identical := 0.0
	if r.Identical {
		identical = 1
	}
	return map[string]float64{
		"species":                 float64(r.Species),
		"uncached_seconds":        r.UncachedSeconds,
		"cold_seconds":            r.ColdSeconds,
		"warm_seconds":            r.WarmSeconds,
		"warm_hit_rate":           r.WarmHitRate,
		"reaction_speedup":        r.ReactionSpeedup,
		"identical":               identical,
		"range_cold_s":            r.RangeColdSeconds,
		"range_warm_s":            r.RangeWarmSeconds,
		"range_speedup":           r.RangeSpeedup,
		"range_hit_rate":          r.RangeHitRate,
		"content_entries":         float64(r.ContentEntries),
		"content_bytes_per_entry": r.ContentBytesPerEntry,
	}
}

// BindingStudy measures cross-reaction binding reuse. The reaction
// regimes run the paper's hot reaction — an elongated-primer access
// against the full Section 6 tube (13 files, ~10^4 species) — with no
// provider, a cold shared cache, and a warm one; the range regime runs
// a full wet ReadRange (PCR + sequencing + decode) through a store's
// own cache. reactions sets how many timed repetitions each reaction
// regime gets (10 when <= 0).
func BindingStudy(reactions int) (*BindingResult, error) {
	if reactions <= 0 {
		reactions = 10
	}
	w, err := Build(Options{})
	if err != nil {
		return nil, err
	}
	tube := w.Store.Tube()
	cfg := w.Store.Config()

	// One real block access: the elongated primer plus main-primer
	// carryover, exactly the reaction retrieve() runs.
	ep, err := w.Alice.ElongatedPrimer(531)
	if err != nil {
		return nil, err
	}
	fwd, rev := w.Alice.Primers()
	primers := []pcr.Primer{{Fwd: ep, Rev: rev, Conc: 1}}
	if cfg.CarryoverConc > 0 {
		primers = append(primers, pcr.Primer{Fwd: fwd, Rev: rev, Conc: cfg.CarryoverConc})
	}
	params := cfg.PCR
	params.Capacity = cfg.CapacityFactor * tube.Total()

	res := &BindingResult{Species: tube.Len(), Reactions: reactions}

	run := func(prov binding.Provider) (*pool.Pool, float64, error) {
		p := params
		p.Provider = prov
		t0 := time.Now()
		out, _, err := pcr.Run(tube, primers, p)
		return out, time.Since(t0).Seconds(), err
	}

	// Regime 1: no provider — every reaction aligns from scratch.
	var uncachedOut *pool.Pool
	for i := 0; i < reactions; i++ {
		out, secs, err := run(nil)
		if err != nil {
			return nil, err
		}
		uncachedOut, res.UncachedSeconds = out, res.UncachedSeconds+secs
	}
	res.UncachedSeconds /= float64(reactions)

	// Regime 2: a fresh shared cache — one cold fill, then warm replays.
	// The cold reaction's product is dropped, so the live heap it leaves
	// behind is the cache's own.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cache := binding.NewCache(0)
	_, cold, err := run(cache)
	if err != nil {
		return nil, err
	}
	res.ColdSeconds = cold
	afterCold := cache.Stats()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.ContentEntries = afterCold.Entries
	if afterCold.Entries > 0 {
		res.ContentBytesPerEntry = float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(afterCold.Entries)
	}
	var cachedOut *pool.Pool
	for i := 0; i < reactions; i++ {
		out, secs, err := run(cache)
		if err != nil {
			return nil, err
		}
		cachedOut, res.WarmSeconds = out, res.WarmSeconds+secs
	}
	res.WarmSeconds /= float64(reactions)
	if rate, any := cache.Stats().HitRateSince(afterCold); any {
		res.WarmHitRate = rate
	}
	if res.WarmSeconds > 0 {
		res.ReactionSpeedup = res.UncachedSeconds / res.WarmSeconds
	}
	res.Identical = uncachedOut.Digest() == cachedOut.Digest()

	// Regime 3: the store's own cache under a full wet range read —
	// PCR, sequencing and decode included, the end-to-end view.
	rangeStore, rangePart, err := WriteBenchStore(1)
	if err != nil {
		return nil, err
	}
	for i, data := range writePayload() {
		if err := rangePart.WriteBlock(i, data); err != nil {
			return nil, err
		}
	}
	const lo, hi = 2, 45 // unaligned range: ~11 prefix covers
	res.RangeBlocks = hi - lo + 1
	t0 := time.Now()
	if _, err := rangePart.ReadRange(lo, hi); err != nil {
		return nil, err
	}
	res.RangeColdSeconds = time.Since(t0).Seconds()
	t1 := time.Now()
	if _, err := rangePart.ReadRange(lo, hi); err != nil {
		return nil, err
	}
	res.RangeWarmSeconds = time.Since(t1).Seconds()
	if res.RangeWarmSeconds > 0 {
		res.RangeSpeedup = res.RangeColdSeconds / res.RangeWarmSeconds
	}
	if st, ok := rangeStore.BindingStats(); ok {
		res.RangeHitRate = st.HitRate()
	}
	return res, nil
}

// PrintBindingStudy formats the binding-reuse study.
func PrintBindingStudy(w io.Writer, r *BindingResult) {
	fmt.Fprintf(w, "Cross-reaction binding cache (%d-species tube, %d reactions per regime)\n",
		r.Species, r.Reactions)
	fmt.Fprintf(w, "  reaction, no cache:   %8.4fs\n", r.UncachedSeconds)
	fmt.Fprintf(w, "  reaction, cold cache: %8.4fs   (aligns + fills)\n", r.ColdSeconds)
	fmt.Fprintf(w, "  reaction, warm cache: %8.4fs   (%.2fx vs no cache, %.1f%% hits)\n",
		r.WarmSeconds, r.ReactionSpeedup, 100*r.WarmHitRate)
	fmt.Fprintf(w, "  content store after the cold reaction: %d entries, %.1f live heap bytes/entry\n",
		r.ContentEntries, r.ContentBytesPerEntry)
	if r.Identical {
		fmt.Fprintf(w, "  cached product byte-identical to uncached: yes\n")
	} else {
		fmt.Fprintf(w, "  cached product byte-identical to uncached: NO — purity contract violated\n")
	}
	fmt.Fprintf(w, "  ReadRange %d blocks: cold %7.3fs, warm %7.3fs (%.2fx, store cache %.1f%% hits)\n",
		r.RangeBlocks, r.RangeColdSeconds, r.RangeWarmSeconds, r.RangeSpeedup, 100*r.RangeHitRate)
}
