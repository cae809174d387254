package blockstore

import (
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/parallel"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/seqsim"
	"dnastore/internal/streamdecode"
)

// This file is the wet half of the floor-stopped streaming protocol: a
// reaction sequences incrementally, feeding each chunk through the
// streamdecode engine and stopping (or, for multi-target reactions,
// redirecting via an adaptive-sampling gate) once every target's
// coverage floor is met. The engine's assignment state is sharded by
// provisional block address and its block finalizes run on a
// background pool, overlapping the decode back half with ongoing
// sequencing. The other protocol, the full budget, decodes with the
// same engine (streamdecode.Decode, called from react).
//
// Failure classification survives the early stop because the stream
// draws its injected delivery ceiling up front, so "truncated" is a
// real abort signal, not one forged by adaptive stopping. Reactions
// that never amplified (PCR failure, contamination choking the
// reagents) take the full budget: nanopore loading needs amplified
// molarity, and the recovery machinery's gain/foreign-mass
// classification keeps its full-budget semantics for them.

// streamChunk is the most reads sequenced between engine updates and
// stop checks — small enough that overshoot past the coverage floor
// stays a fraction of the savings, large enough to amortize the
// engine's parallel stage fork-join.
const streamChunk = 256

// chunkSize scales the stop-check interval to the reaction's budget: a
// single-unit retrieval (375-read budget) gets several stop checks
// instead of one check and then a straight run to the budget, while
// big cover reactions keep the full amortizing chunk.
func chunkSize(budget int) int {
	c := budget / 4
	if c > streamChunk {
		c = streamChunk
	}
	if c < 32 {
		c = 32
	}
	return c
}

// ejectOverhead bounds a gated reaction's total pore entries (sequenced
// + ejected) at this multiple of its read budget. Ejection costs only
// the recognition prefix of a molecule, not a full read, but pore time
// is not free: without the bound a reaction whose remaining targets
// have decayed out of the tube would eject forever.
const ejectOverhead = 4

// streams picks a reaction's sequencing protocol after its PCR: the
// floor-stopped stream (true) or the full budget. It streams only when
// Config.Streaming is set, the mode is not wetBatch, the budget is
// unscaled (a deliberate depth choice the floor would override), and,
// under fault injection, the PCR really amplified: a failed reaction's
// aliquot cannot be loaded for adaptive sampling, and supervisors
// classify it on full-budget gain and foreign-mass evidence.
func (p *Partition) streams(wet wetMode, scale, gain float64) bool {
	return p.store.cfg.Streaming && wet != wetBatch && scale == 1 &&
		(p.store.cfg.Faults == nil || gain > failedGainCeiling)
}

// pore is one reaction's open sequencing stream feeding its decode
// engine, bounded by the delivery ceiling and the pore-entry budget.
type pore struct {
	st                  *seqsim.Stream
	eng                 *streamdecode.Engine
	gate                func(int) bool
	batch               []dna.Seq
	chunk               int
	ceiling, maxEntries int // sequenced-read ceiling; pore-entry bound
}

// openPore starts a reaction's stream under its (possibly abort-cut)
// delivery ceiling. The engine's assignment is sharded per
// Config.StreamShards (0 = streamdecode.DefaultShards) and block
// finalization overlapped on a background pool; it fans out on the
// store's worker budget even when the reaction fan-out is 1 — its
// output is worker-invariant, so this only moves wall-clock. strict
// zeroes the coverage floor's erasure slack.
func (p *Partition) openPore(r *rng.Source, amplified *pool.Pool, ceiling int, strict bool) (*pore, error) {
	st, err := p.store.sampler.Stream(r, amplified)
	if err != nil {
		// Mirror the full budget's accounting: sequence() charges the
		// budget before sampling can fail.
		p.store.addCosts(func(c *Costs) { c.ReadsSequenced += ceiling })
		return nil, err
	}
	workers := p.store.workers
	eng, err := streamdecode.NewSharded(p.pipeline, 0, workers, p.store.cfg.StreamShards)
	if err != nil {
		return nil, err
	}
	eng.Overlap(parallel.NewPool(workers))
	if strict {
		eng.SetSlack(0)
	}
	chunk := chunkSize(ceiling)
	return &pore{
		st: st, eng: eng, gate: p.poreGate(amplified, eng), batch: make([]dna.Seq, 0, chunk),
		chunk: chunk, ceiling: ceiling, maxEntries: ejectOverhead * ceiling,
	}, nil
}

// spent reports whether the stream has run out of sequencing ceiling
// or pore entries — the latter is what terminates a gated stream whose
// admissible molecules have run dry.
func (s *pore) spent() bool {
	return s.st.Sequenced >= s.ceiling || s.entries() >= s.maxEntries
}

// entries counts pore entries: reads sequenced plus molecules ejected.
func (s *pore) entries() int { return s.st.Sequenced + s.st.Ejected }

// fill feeds the engine chunks of sequenced reads, skipping ejections,
// until done reports true or the stream is spent.
func (s *pore) fill(done func() bool) {
	for !s.spent() && !done() {
		s.batch = s.batch[:0]
		for len(s.batch) < s.chunk && !s.spent() {
			if rd, ok := s.st.Next(s.gate); ok {
				s.batch = append(s.batch, rd.Seq)
			}
		}
		s.eng.Add(s.batch)
	}
}

// closePore charges the stream's reads and ejections, drains the
// engine's background jobs and folds its per-stage accounting into the
// store's streaming totals.
func (p *Partition) closePore(s *pore) {
	p.store.addCosts(func(c *Costs) {
		c.ReadsSequenced += s.st.Sequenced
		c.ReadsEjected += s.st.Ejected
	})
	s.eng.Close()
	p.store.addStreamStats(s.eng.Stats())
}

// streamBlock sequences one elongated-PCR reaction incrementally until
// the target block's coverage floor is met, then decodes. The pore
// gate ejects molecules that cannot contribute to the target — at
// 10^6-strand tube scale the carryover junk would otherwise consume
// the whole read budget before the floor filled. If the floor proves
// too shallow (the finalize cannot serve an expected version), Reopen
// doubles it and the stream continues, degrading toward the full
// budget spent entirely on admissible molecules. An injected
// sequencing abort truncates the reaction's delivery ceiling below the
// budget before the first draw, exactly as it truncates a full-budget
// run. The stream reads info.budget and records its evidence in info:
// reads sequenced, whether the ceiling was truncated, total pore
// entries (the stream's true effort), and the engine's live mean
// per-slot coverage of the target.
func (p *Partition) streamBlock(r *rng.Source, amplified *pool.Pool, block int, info *wetInfo, strict bool) (*decode.BlockResult, error) {
	ceiling := p.store.faultBudget(r, info.budget)
	info.truncated = ceiling < info.budget
	s, err := p.openPore(r, amplified, ceiling, strict)
	if err != nil {
		return nil, err
	}
	defer p.closePore(s)
	expected := p.expectedVersions(block)
	s.eng.Expect(block, expected)
	done := func() bool { return s.eng.Done(block) }
	s.fill(done)
	res, derr := s.eng.FinalizeBlock(block)
	for (derr != nil || !servesExpected(res, expected)) && !s.spent() {
		s.eng.Reopen(block)
		s.fill(done)
		res, derr = s.eng.FinalizeBlock(block)
	}
	info.delivered = s.st.Sequenced
	info.entries = s.entries()
	info.covAvg, _ = s.eng.CoverageEstimate(block)
	return res, derr
}

// poreGate builds the adaptive-sampling admission decision for one
// reaction: each molecule's clean template is parsed once — by the
// same provisional-address parser the engine uses, never the
// simulator's ground-truth metadata — and the verdict memoized per
// species.
func (p *Partition) poreGate(amplified *pool.Pool, eng *streamdecode.Engine) func(int) bool {
	const (
		speciesFiltered    = -2 // fails the primer filter: junk to any protocol
		speciesUnaddressed = -1 // keeps but does not parse: always sequence
	)
	blockOf := make(map[int]int)
	var tmpl dna.Seq
	return func(si int) bool {
		b, ok := blockOf[si]
		if !ok {
			tmpl = amplified.AppendSeq(tmpl[:0], si)
			switch pb, _, _, pok := p.pipeline.ProvisionalAddress(tmpl); {
			case pok:
				b = pb
			case p.pipeline.Keep(tmpl):
				b = speciesUnaddressed
			default:
				b = speciesFiltered
			}
			blockOf[si] = b
		}
		switch {
		case b == speciesFiltered:
			// The decoder's primer filter would discard this molecule's
			// reads unread (the full budget wastes reads sequencing
			// them — that is what WasteFactor provisions for); ejecting
			// loses nothing from either protocol's kept set.
			return false
		case b == speciesUnaddressed:
			// Keeps but has no parseable address (a decayed index, a
			// well-primed chimera): sequence it, conservatively.
			return true
		case !eng.IsTarget(b):
			return false // carryover outside this reaction's target set
		default:
			return !eng.Done(b)
		}
	}
}

// streamTargets sequences one multi-block reaction (a range cover or a
// whole-partition read) incrementally. The gate implements nanopore
// adaptive sampling: each drawn molecule's clean template is parsed
// once — by the same provisional-address parser the engine uses, never
// the simulator's ground-truth metadata — and molecules of finished
// targets or of blocks outside the target set are ejected unsequenced.
// Targets that still fail to decode at the floor are reopened — their
// floors double per round — and the stream escalates until every target
// decodes or the full budget (or the pore-entry bound) is exhausted.
func (p *Partition) streamTargets(r *rng.Source, amplified *pool.Pool, targets []int, budget int) (map[int]*decode.BlockResult, error) {
	s, err := p.openPore(r, amplified, p.store.faultBudget(r, budget), false)
	if err != nil {
		return nil, err
	}
	defer p.closePore(s)
	for _, b := range targets {
		s.eng.Expect(b, p.expectedVersions(b))
	}
	s.fill(s.eng.AllDone)
	results, derr := s.eng.Finalize()
	for derr == nil {
		// A target fails until every version the front-end wrote has
		// decoded. Unit errors on other versions are phantom slots
		// conjured by mis-parsed stray reads, which assembly ignores.
		var bad []int
		for _, b := range targets {
			if !servesExpected(results[b], p.expectedVersions(b)) {
				bad = append(bad, b)
			}
		}
		if len(bad) == 0 || s.spent() {
			break
		}
		for _, b := range bad {
			s.eng.Reopen(b)
		}
		s.fill(s.eng.AllDone)
		// Re-finalize only the escalated targets: the others' results
		// are already good, and a full re-decode would repeat their
		// trace and RS work every round.
		for _, b := range bad {
			res, _ := s.eng.FinalizeBlock(b)
			if res != nil {
				results[b] = res
			} else {
				delete(results, b)
			}
		}
	}
	return results, derr
}

// servesExpected reports whether a decode result carries content for
// every expected version of its block.
func servesExpected(res *decode.BlockResult, expected []int) bool {
	if res == nil {
		return false
	}
	for _, v := range expected {
		if res.Versions[v] == nil {
			return false
		}
	}
	return true
}

// writtenIn snapshots the written blocks in [lo, hi], the target set of
// a cover reaction.
func (p *Partition) writtenIn(lo, hi int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []int
	for b := lo; b <= hi; b++ {
		if p.written[b] {
			out = append(out, b)
		}
	}
	return out
}
