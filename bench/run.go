package main

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"dnastore/internal/binding"
	"dnastore/internal/blockstore"
	"dnastore/internal/fault"
	"dnastore/internal/streamdecode"
)

// limit bounds the timed phase: by wall time, or by operation count when
// ops > 0, which the tests use to get exact counters.
type limit struct {
	seconds float64
	ops     int
}

func (l limit) more(done int, start time.Time) bool {
	if l.ops > 0 {
		return done < l.ops
	}
	return time.Since(start).Seconds() < l.seconds
}

// result is everything one run of one workload measured.
type result struct {
	setup     []float64 // seconds per store build
	heap      []float64 // live heap bytes after each of those builds
	stores    int       // stores built, the first included
	lat       []float64 // seconds per timed operation, store calls only
	attempted int       // warm-up and timed operations
	failed    int
	corrupt   int

	read, written int // blocks over the timed phase
	storeStats        // store counters over the timed phase
	strands       int // synthesized by the workload's writes, setup included
	userBytes     int
	alloc         uint64 // bytes allocated over the timed phase

	retries, hedges, extra int

	// Traced runs only.
	tr      *tracer
	rx      reactionTotals // reactions of the timed phase
	species int            // tube species after setup
	mutants int
	scrub   blockstore.ScrubReport
	cpu     map[string]int64
}

// storeStats are a store's cumulative counters; the binding counters
// come from a traced store's counting provider.
type storeStats struct {
	costs  blockstore.Costs
	stream streamdecode.Stats
	faults int64
	bind   binding.Stats
}

func statsOf(f *fixture) storeStats {
	s := storeStats{costs: f.store.Costs(), stream: f.store.StreamStats(), faults: faultCount(f.store.FaultStats())}
	if f.prov != nil {
		s.bind = f.prov.inner.Stats()
	}
	return s
}

// fold adds what fixture f did since before to the run's totals.
func (r *result) fold(f *fixture, before storeStats) {
	a, b, t := statsOf(f), before, &r.storeStats
	t.costs.StrandsSynthesized += a.costs.StrandsSynthesized - b.costs.StrandsSynthesized
	t.costs.PrimerPairsUsed += a.costs.PrimerPairsUsed - b.costs.PrimerPairsUsed
	t.costs.ElongatedPrimersSynthesized += a.costs.ElongatedPrimersSynthesized - b.costs.ElongatedPrimersSynthesized
	t.costs.ReadsSequenced += a.costs.ReadsSequenced - b.costs.ReadsSequenced
	t.costs.PCRReactions += a.costs.PCRReactions - b.costs.PCRReactions
	t.costs.ReadsEjected += a.costs.ReadsEjected - b.costs.ReadsEjected
	t.stream.Kept += a.stream.Kept - b.stream.Kept
	t.stream.Residue += a.stream.Residue - b.stream.Residue
	t.stream.StageASeconds += a.stream.StageASeconds - b.stream.StageASeconds
	t.stream.StageBSeconds += a.stream.StageBSeconds - b.stream.StageBSeconds
	t.stream.FinalizeSeconds += a.stream.FinalizeSeconds - b.stream.FinalizeSeconds
	t.stream.FinalizeWaitSeconds += a.stream.FinalizeWaitSeconds - b.stream.FinalizeWaitSeconds
	t.stream.HandoffSeconds += a.stream.HandoffSeconds - b.stream.HandoffSeconds
	t.stream.FinalizeJobs += a.stream.FinalizeJobs - b.stream.FinalizeJobs
	t.stream.FinalizeDiscarded += a.stream.FinalizeDiscarded - b.stream.FinalizeDiscarded
	t.faults += a.faults - b.faults
	t.bind.RowHits += a.bind.RowHits - b.bind.RowHits
	t.bind.Hits += a.bind.Hits - b.bind.Hits
	t.bind.Misses += a.bind.Misses - b.bind.Misses
	t.bind.Evictions += a.bind.Evictions - b.bind.Evictions
	r.strands += f.strands
	r.userBytes += f.userBytes
}

// runOnce builds the workload's store and measures it, replacing the
// store whenever the workload spends it. A traced run gives every store
// a counting binding provider and records spans and a CPU profile over
// the timed phase.
func runOnce(w *workload, seed uint64, sz sizes, lim limit, traced bool) (*result, error) {
	r := &result{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	build := func(seed uint64) (*fixture, error) {
		var p binding.Provider
		if traced {
			p = newCountingProvider(tr)
		}
		f, err := w.build(seed, sz, p)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		f.tr = tr
		r.stores++
		return f, nil
	}
	runtime.GC()
	t0 := time.Now()
	f, err := build(seed)
	if err != nil {
		return nil, err
	}
	r.setup = []float64{time.Since(t0).Seconds()}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heap = []float64{float64(ms.HeapAlloc)}
	r.species = f.store.Tube().Len()
	r.mutants = f.decay.MutantSpecies
	if f.scrub != nil {
		r.scrub = *f.scrub
	}

	for range w.warmup(sz) {
		r.tally(w, f)
	}

	before, rxBefore := statsOf(f), tr.sum()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&ms)
	allocBefore, rebuildAlloc := ms.TotalAlloc, uint64(0)
	start := time.Now()
	for i := 0; lim.more(i, start); i++ {
		if f.spent {
			r.fold(f, before)
			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			if f, err = build(f.nextSeed); err != nil {
				return nil, err
			}
			runtime.ReadMemStats(&ms)
			rebuildAlloc += ms.TotalAlloc - a0
			before = statsOf(f)
		}
		s := r.tally(w, f)
		r.lat = append(r.lat, s.elapsed.Seconds())
		r.read += s.read
		r.written += s.written
		r.retries += s.retries
		r.hedges += s.hedges
		r.extra += s.extra
	}
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - allocBefore - rebuildAlloc
	if traced {
		pprof.StopCPUProfile()
		cpu, err := profileLayers(prof.Bytes())
		if err != nil {
			return nil, err
		}
		r.cpu = cpu
		r.tr, r.rx = tr, tr.sum().sub(rxBefore)
	}
	r.fold(f, before)
	return r, nil
}

// tally runs the next operation, numbered from the first warm-up, and
// folds its outcome into the run's correctness counts.
func (r *result) tally(w *workload, f *fixture) step {
	i := r.attempted
	f.tr.startOp(i, w.name)
	s := w.op(f)
	f.tr.endOp()
	r.attempted++
	if s.failed {
		r.failed++
		if r.failed <= 3 {
			fmt.Fprintf(os.Stderr, "bench: %s op %d failed: %v\n", w.name, i, s.err)
		}
	}
	r.corrupt += s.corrupt
	return s
}

func faultCount(s fault.Stats) int64 {
	return s.PCRFailures + s.PCRPartials + s.SeqAborts + s.SynthDrops + s.Contaminations
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio divides, reading 0 for an empty denominator so no metric is NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// endToEnd computes the gated metrics a user of the store sees. Read
// costs are per block returned; allocation is per block read or
// written.
func endToEnd(r *result) map[string]metric {
	blocks := float64(r.read + r.written)
	read := float64(r.read)
	return map[string]metric{
		"setup_s":            {percentile(r.setup, 0.5), "s"},
		"reads_per_block":    {ratio(float64(r.costs.ReadsSequenced), read), "count"},
		"ejected_per_block":  {ratio(float64(r.costs.ReadsEjected), read), "count"},
		"pcr_per_block":      {ratio(float64(r.costs.PCRReactions), read), "count"},
		"strands_per_kib":    {ratio(float64(r.strands), float64(r.userBytes)/1024), "count"},
		"heap_mb":            {percentile(r.heap, 0.5) / 1e6, "MB"},
		"alloc_kb_per_block": {ratio(float64(r.alloc)/1e3, blocks), "kB"},
	}
}

// opTimes are an untraced run's operation latencies. They are reported
// but not gated: on the shared reference host a run's median moves by
// up to 2x with the other tenants' load while every counter holds.
func opTimes(r *result) map[string]metric {
	return map[string]metric{
		"op.p50_ms":  {1e3 * percentile(r.lat, 0.5), "ms"},
		"op.p90_ms":  {1e3 * percentile(r.lat, 0.9), "ms"},
		"op.samples": {float64(len(r.lat)), "count"},
	}
}

// perLayer computes the traced run's per-layer metrics, per timed
// operation unless named as a ratio. base is the untraced run of the
// same seed, the reference for the tracing overhead.
func perLayer(r, base *result) map[string]metric {
	ops := float64(len(r.lat))
	per := func(x float64) float64 { return ratio(x, ops) }
	ms := func(sec float64) float64 { return per(1e3 * sec) }
	b, st := r.bind, r.stream
	served := float64(b.RowHits + b.Hits)
	calls := served + float64(b.Misses)
	m := map[string]metric{
		"trace.overhead":  {ratio(percentile(r.lat, 0.5), percentile(base.lat, 0.5)) - 1, "ratio"},
		"trace.op_p50_ms": {1e3 * percentile(r.lat, 0.5), "ms"},

		"binding.calls_per_op":     {per(float64(r.rx.bindCalls)), "count"},
		"binding.busy_ms":          {ms(float64(r.rx.bindNS) / 1e9), "ms"},
		"binding.hit_ratio":        {ratio(served, calls), "ratio"},
		"binding.row_hit_ratio":    {ratio(float64(b.RowHits), calls), "ratio"},
		"binding.evictions_per_op": {per(float64(b.Evictions)), "count"},

		"pcr.reactions_per_op": {per(float64(r.costs.PCRReactions)), "count"},
		"pcr.span_ms":          {ms(float64(r.rx.spanNS) / 1e9), "ms"},

		"seqsim.sequenced_per_op": {per(float64(r.costs.ReadsSequenced)), "count"},
		"seqsim.ejected_per_op":   {per(float64(r.costs.ReadsEjected)), "count"},

		"streamdecode.stage_a_ms":                {ms(st.StageASeconds), "ms"},
		"streamdecode.stage_b_ms":                {ms(st.StageBSeconds), "ms"},
		"streamdecode.finalize_ms":               {ms(st.FinalizeSeconds), "ms"},
		"streamdecode.finalize_wait_ms":          {ms(st.FinalizeWaitSeconds), "ms"},
		"streamdecode.finalize_overlap":          {max(0, 1-ratio(st.FinalizeWaitSeconds, st.FinalizeSeconds)), "ratio"},
		"streamdecode.kept_per_op":               {per(float64(st.Kept)), "count"},
		"streamdecode.residue_frac":              {ratio(float64(st.Residue), float64(st.Kept)), "ratio"},
		"streamdecode.finalize_jobs_per_op":      {per(float64(st.FinalizeJobs)), "count"},
		"streamdecode.finalize_discarded_per_op": {per(float64(st.FinalizeDiscarded)), "count"},
		"blockstore.primers_per_op":              {per(float64(r.costs.ElongatedPrimersSynthesized)), "count"},
		"supervise.retries_per_op":               {per(float64(r.retries)), "count"},
		"supervise.hedges_per_op":                {per(float64(r.hedges)), "count"},
		"supervise.extra_reads_per_op":           {per(float64(r.extra)), "count"},
		"fault.fired_per_op":                     {per(float64(r.faults)), "count"},
		"decay.mutant_species":                   {float64(r.mutants), "count"},
		"scrub.flagged":                          {float64(r.scrub.BlocksFlagged), "count"},
		"scrub.reads":                            {float64(r.scrub.Cost.ReadsSequenced), "count"},
		"pool.species":                           {float64(r.species), "count"},
		"pool.heap_bytes_per_species":            {ratio(r.heap[0], float64(r.species)), "B"},
	}
	for _, l := range cpuLayers {
		m["cpu."+l+"_ms"] = metric{ms(float64(r.cpu[l]) / 1e9), "ms"}
	}
	maps.Copy(m, opTimes(base))
	return m
}
