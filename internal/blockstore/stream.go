package blockstore

import (
	"slices"

	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/pool"
	"dnastore/internal/recycle"
	"dnastore/internal/rng"
	"dnastore/internal/seqsim"
	"dnastore/internal/streamdecode"
)

// This file is the wet half of the floor-stopped streaming protocol: a
// reaction sequences incrementally, feeding each chunk through the
// streamdecode engine, ejecting molecules no open target needs through
// an adaptive-sampling gate, and stopping on the read that meets every
// target's coverage floor. The engine's assignment state is
// sharded by provisional block address, and the decode back half runs
// once the stream stops, on the reaction's own goroutine. The other
// protocol, the full budget, decodes with the same engine
// (streamdecode.Decode, called from react).
//
// Failure classification survives the early stop because the stream
// draws its injected delivery ceiling up front, so "truncated" is a
// real abort signal, not one forged by adaptive stopping. Reactions
// that never amplified (PCR failure, contamination choking the
// reagents) take the full budget: nanopore loading needs amplified
// molarity, and the recovery machinery's gain/foreign-mass
// classification keeps its full-budget semantics for them.

// streamChunk is the most reads drawn per engine update. Chunks only
// amortize the engine's parallel stage fork-join: the engine re-asks
// the stop test and the gate before crediting each read and cuts the
// chunk there, so the chunk size no longer bounds how far a stream
// overshoots its floor — a stream stops on the read that meets it.
const streamChunk = 256

// chunkSize scales the draw chunk to the reaction's budget — a quarter
// of it, between 32 reads and streamChunk — so a single-unit retrieval
// does not draw most of its budget before its first engine update,
// while big cover reactions keep the full amortizing chunk. The reads a
// cut drops are never charged.
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
// floor-stopped stream (true) or the full budget. Every read streams
// except a scrub repair read (wetBatch), a depth-scaled read (a
// deliberate depth choice the floor would override) and, under fault
// injection, a reaction whose PCR never amplified: a failed reaction's
// aliquot cannot be loaded for adaptive sampling, and supervisors
// classify it on full-budget gain and foreign-mass evidence.
func (p *Partition) streams(wet wetMode, scale, gain float64) bool {
	return wet != wetBatch && scale == 1 &&
		(p.store.cfg.Faults == nil || gain > failedGainCeiling)
}

// pore is one reaction's open sequencing stream feeding its decode
// engine, bounded by the delivery ceiling and the pore-entry budget.
//
// The pore draws a chunk at a time under the gate as it stood when the
// chunk began, and the engine cuts the chunk on the first read that
// admit — the stop test and the gate re-asked against the live floors —
// refuses. Within a chunk floors only fill (Reopen runs between
// fills), so the chunk-start gate is never stricter than the live one:
// every molecule it ejected the live gate ejects too, and the draws
// before the cut are, draw for draw, what a one-read chunk would have
// drawn. The pore charges those draws only. The draws past the cut are
// dropped uncharged, and the stream's private source is rewound to the
// cut, so a stream that continues (after a Reopen, or past a target
// the gate now ejects) redraws exactly what the one-read chunk would
// draw next: the chunk size moves wall clock, never the reads.
type pore struct {
	st    *seqsim.Stream
	src   *rng.Source // the stream's private source
	eng   *streamdecode.Engine
	gate  func(int) bool // the reaction's gate, recording each draw
	admit func(int) bool // the engine's per-read cut test
	done  func() bool    // the current fill's stop test
	*poreScratch
	at    draw // the latest gate call: species and source state
	chunk int
	// sequenced and ejected are the pore's charged work: every read and
	// ejection up to the last cut.
	sequenced, ejected  int
	ceiling, maxEntries int // sequenced-read ceiling; pore-entry bound
}

// poreScratch is the storage a pore hands to the next one when it
// closes: the chunk's read slots with their buffers, the draw log, and
// the gate's per-species verdicts with its template buffer.
type poreScratch struct {
	batch   []dna.Seq
	draws   []draw // per batched read
	blockOf map[int]int
	tmpl    dna.Seq
}

// poreScratches holds closed pores' scratch; its entries are weak, so
// a collection frees what no reaction took back.
var poreScratches recycle.List[poreScratch]

// draw records one sequenced read of a chunk: its species, the pore's
// ejection count before it, and the stream source's state at its gate
// call (species drawn, read not yet sequenced) and after its read.
type draw struct {
	species, ejected int
	atGate, after    rng.Source
}

// openPore starts a reaction's stream under its (possibly abort-cut)
// delivery ceiling. The stream draws from a source forked off the
// reaction's, so where it stops never moves the draws the reaction
// makes after it (fault draws, assembly's overflow-chain reactions):
// those depend only on how many draws preceded the fork. The engine's
// assignment runs on streamdecode.DefaultShards shards; it fans out on
// the store's worker budget even when the reaction fan-out is 1 — its
// output is worker-invariant, so this only moves wall-clock. strict
// zeroes the coverage floor's erasure slack.
func (p *Partition) openPore(r *rng.Source, amplified *pool.Pool, ceiling int, strict bool) (*pore, error) {
	src := r.Fork()
	st, err := p.store.sampler.Stream(src, amplified)
	if err != nil {
		// Mirror the full budget's accounting: sequence() charges the
		// budget before sampling can fail.
		p.store.addCosts(func(c *Costs) { c.ReadsSequenced += ceiling })
		return nil, err
	}
	eng, err := streamdecode.New(p.pipeline, p.store.workers, 0)
	if err != nil {
		st.Close()
		return nil, err
	}
	if strict {
		eng.SetSlack(0)
	}
	chunk := chunkSize(ceiling)
	sc := poreScratches.Get()
	if sc == nil {
		sc = &poreScratch{blockOf: make(map[int]int)}
	}
	// Grow keeps the slots past the length, so each keeps its buffer.
	sc.batch, sc.draws = slices.Grow(sc.batch[:0], chunk), slices.Grow(sc.draws[:0], chunk)
	gate := p.poreGate(amplified, eng, sc)
	s := &pore{
		st: st, src: src, eng: eng, poreScratch: sc,
		chunk: chunk, ceiling: ceiling, maxEntries: ejectOverhead * ceiling,
	}
	s.gate = func(si int) bool {
		s.at.species, s.at.atGate = si, *src
		return gate(si)
	}
	s.admit = func(i int) bool { return !s.done() && gate(s.draws[i].species) }
	return s, nil
}

// spent reports whether the stream has run out of sequencing ceiling
// or pore entries — the latter is what terminates a gated stream whose
// admissible molecules have run dry.
func (s *pore) spent() bool {
	return s.sequenced >= s.ceiling || s.entries() >= s.maxEntries
}

// entries counts pore entries: reads sequenced plus molecules ejected.
func (s *pore) entries() int { return s.sequenced + s.ejected }

// fill feeds the engine chunks of sequenced reads, skipping ejections,
// until done reports true or the stream is spent. The engine cuts each
// chunk on the first read admit refuses, and the pore rolls its
// charges and its source back to the cut. If the stop test refused,
// the stream ended on the read before: the ejections drawn after that
// read go with the rest. If only the gate refused, the live gate
// ejects that molecule: it is charged as an ejection, and the stream
// resumes from its species draw.
func (s *pore) fill(done func() bool) {
	s.done = done
	for !s.spent() && !done() {
		s.batch, s.draws = s.batch[:0], s.draws[:0]
		for len(s.batch) < s.chunk && !s.spent() {
			// Each chunk slot keeps its read buffer across chunks: the
			// engine packs what it keeps into its own arena.
			i := len(s.batch)
			rd, ok := s.st.AppendNext(s.batch[:i+1][i][:0], s.gate)
			if !ok {
				s.ejected++
				continue
			}
			s.at.ejected, s.at.after = s.ejected, *s.src
			s.batch = append(s.batch, rd.Seq)
			s.draws = append(s.draws, s.at)
			s.sequenced++
		}
		cut := s.eng.Add(s.batch, s.admit)
		if cut == len(s.batch) {
			continue
		}
		// admit passes a chunk's first read: it re-asks what the loop
		// and the gate just answered, so cut >= 1.
		s.sequenced -= len(s.batch) - cut
		if done() {
			last := &s.draws[cut-1]
			s.ejected, *s.src = last.ejected, last.after
		} else {
			refused := &s.draws[cut]
			s.ejected, *s.src = refused.ejected+1, refused.atGate
		}
	}
}

// closePore charges the stream's reads and ejections, closes the
// stream, folds the engine's per-stage accounting into the store's
// streaming totals, and hands the engine and the scratch to the next
// reaction.
func (p *Partition) closePore(s *pore) {
	p.store.addCosts(func(c *Costs) {
		c.ReadsSequenced += s.sequenced
		c.ReadsEjected += s.ejected
	})
	s.st.Close()
	p.store.addStreamStats(s.eng.Stats())
	s.eng.Release()
	clear(s.blockOf)
	poreScratches.Put(s.poreScratch)
	s.eng, s.poreScratch = nil, nil
}

// poreGate builds the adaptive-sampling admission decision for one
// reaction: each molecule's clean template is parsed once — by the
// same provisional-address parser the engine uses, never the
// simulator's ground-truth metadata — and the verdict memoized per
// species in the pore's scratch.
func (p *Partition) poreGate(amplified *pool.Pool, eng *streamdecode.Engine, sc *poreScratch) func(int) bool {
	const (
		speciesFiltered    = -2 // fails the primer filter: junk to any protocol
		speciesUnaddressed = -1 // keeps but does not parse: always sequence
	)
	return func(si int) bool {
		b, ok := sc.blockOf[si]
		if !ok {
			sc.tmpl = amplified.AppendSeq(sc.tmpl[:0], si)
			switch pb, _, _, pok := p.pipeline.ProvisionalAddress(sc.tmpl); {
			case pok:
				b = pb
			case p.pipeline.Keep(sc.tmpl):
				b = speciesUnaddressed
			default:
				b = speciesFiltered
			}
			sc.blockOf[si] = b
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

// streamTargets sequences one reaction incrementally — a block's
// elongated-primer reaction, a range cover or a whole-partition read —
// until every target's coverage floor is met. The gate implements
// nanopore adaptive sampling: each drawn molecule's clean template is
// parsed once — by the same provisional-address parser the engine
// uses, never the simulator's ground-truth metadata — and molecules of
// finished targets or of blocks outside the target set are ejected
// unsequenced (at 10^6-strand tube scale the carryover junk would
// otherwise consume the whole read budget before the floor filled).
// escalate then reopens the targets the floors proved too shallow for.
// The ceiling is the reaction's budget after any injected sequencing
// abort; strict zeroes the floors' erasure slack. The stream records
// its evidence in info: reads sequenced, total pore entries (the
// stream's true effort), and the engine's live mean per-slot coverage
// over the targets.
func (p *Partition) streamTargets(r *rng.Source, amplified *pool.Pool, targets []int, ceiling int, strict bool, info *wetInfo) (map[int]*decode.BlockResult, error) {
	s, err := p.openPore(r, amplified, ceiling, strict)
	if err != nil {
		return nil, err
	}
	defer p.closePore(s)
	for _, b := range targets {
		s.eng.Expect(b, p.expectedVersions(b))
	}
	s.fill(s.eng.AllDone)
	results, err := p.escalate(s, targets)
	info.delivered = s.sequenced
	info.entries = s.entries()
	info.covAvg = s.eng.CoverageEstimate()
	return results, err
}

// escalate finalizes a stream's targets and reopens the failed ones —
// their floors double per round — until all serve their versions or
// the delivery ceiling (or the pore-entry bound) is exhausted. That
// holds also when the first finalize fails outright (Engine.Finalize
// errors only when no target produced a result): every target is
// reopened, and the reaction fails with that finalize's error only if
// escalation never produces a result.
func (p *Partition) escalate(s *pore, targets []int) (map[int]*decode.BlockResult, error) {
	results, derr := s.eng.Finalize()
	if derr != nil {
		results = make(map[int]*decode.BlockResult, len(targets))
	}
	for {
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
	if derr != nil && len(results) == 0 {
		return nil, derr
	}
	return results, nil
}

// servesExpected reports whether a decode result carries content for
// every expected version of its block.
func servesExpected(res *decode.BlockResult, expected []int) bool {
	if res == nil {
		return false
	}
	for _, v := range expected {
		if res.Units[v].Data == nil {
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
		if p.blocks[b].written {
			out = append(out, b)
		}
	}
	return out
}
