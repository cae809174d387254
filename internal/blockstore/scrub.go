package blockstore

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dnastore/internal/decode"
	"dnastore/internal/parallel"
)

// RepairMode selects what Scrub does about an unhealthy block.
type RepairMode int

const (
	// RepairAuto matches the repair to the diagnosis: re-amplification
	// for a thinned but complete block (every slot alive, coverage
	// low), re-synthesis when slots have gone extinct or the strands
	// are corrupted past the RS margin.
	RepairAuto RepairMode = iota
	// RepairNone reports health without touching the tube.
	RepairNone
	// RepairBoost always re-amplifies the block's surviving species.
	RepairBoost
	// RepairResynth always re-reads and re-synthesizes the block.
	RepairResynth
)

func (m RepairMode) String() string {
	switch m {
	case RepairAuto:
		return "auto"
	case RepairNone:
		return "none"
	case RepairBoost:
		return "boost"
	case RepairResynth:
		return "resynth"
	}
	return fmt.Sprintf("repair(%d)", int(m))
}

// ScrubPolicy tunes Store.Scrub. The zero value selects the defaults
// noted per field (DefaultScrubPolicy spells them out).
type ScrubPolicy struct {
	// ProbeDepthFactor scales the sequencing read budget of the cheap
	// probe reads relative to a normal access (default 0.6): the probe
	// reuses the store's binding cache for its PCR, so a scrub pass
	// costs a fraction of a full read sweep. Below ~0.5 the probes
	// themselves start failing on healthy blocks and the scrubber
	// over-repairs.
	ProbeDepthFactor float64
	// MinCoverage is the per-strand read floor below which a block is
	// flagged even when it still decodes — the Heckel et al. coverage
	// floor a durability policy defends (default 2 reads/strand at
	// probe depth).
	MinCoverage float64
	// MaxRSMargin flags a block whose weakest unit has consumed at
	// least this fraction of its Reed-Solomon erasure budget (default
	// 0.5: half the parity slots spent on missing or erased strands).
	MaxRSMargin float64
	// Repair selects the repair action (default RepairAuto).
	Repair RepairMode
	// BoostFactor is the re-amplification gain applied to a boosted
	// block's surviving species (default 20x).
	BoostFactor float64
	// MaxRetries bounds the re-synthesis read retries. Each retry runs
	// at double the previous sequencing depth. Default 3; negative
	// disables retries.
	MaxRetries int
}

// DefaultScrubPolicy returns the documented defaults.
func DefaultScrubPolicy() ScrubPolicy {
	return ScrubPolicy{
		ProbeDepthFactor: 0.6,
		MinCoverage:      2,
		MaxRSMargin:      0.5,
		Repair:           RepairAuto,
		BoostFactor:      20,
		MaxRetries:       3,
	}
}

// normalize fills zero-valued policy fields with the defaults. A NaN
// or infinite field is an error: the <= tests below would pass it
// through, and a NaN boost gain would poison every boosted species'
// abundance.
func (pol ScrubPolicy) normalize() (ScrubPolicy, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ProbeDepthFactor", pol.ProbeDepthFactor},
		{"MinCoverage", pol.MinCoverage},
		{"MaxRSMargin", pol.MaxRSMargin},
		{"BoostFactor", pol.BoostFactor},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return pol, fmt.Errorf("blockstore: scrub policy %s %g is not finite", f.name, f.v)
		}
	}
	def := DefaultScrubPolicy()
	if pol.ProbeDepthFactor <= 0 {
		pol.ProbeDepthFactor = def.ProbeDepthFactor
	}
	if pol.MinCoverage <= 0 {
		pol.MinCoverage = def.MinCoverage
	}
	if pol.MaxRSMargin <= 0 {
		pol.MaxRSMargin = def.MaxRSMargin
	}
	if pol.BoostFactor <= 1 {
		pol.BoostFactor = def.BoostFactor
	}
	if pol.MaxRetries == 0 {
		pol.MaxRetries = def.MaxRetries
	}
	if pol.MaxRetries < 0 {
		pol.MaxRetries = 0
	}
	return pol, nil
}

// BlockRepair records one flagged block's diagnosis and treatment.
type BlockRepair struct {
	Partition string
	Block     int
	Health    Health // probe diagnosis
	Action    string // "boost", "resynth", or "none" (RepairNone)
	Retries   int    // re-synthesis read retries consumed
	Repaired  bool
	// Err is the terminal failure when the repair could not restore
	// the block (typed: ErrRSMarginExceeded means the data is lost).
	Err error
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	BlocksProbed  int
	BlocksFlagged int
	Repaired      int
	Failed        int
	Boosts        int
	Resyntheses   int
	// Cost of the pass (probes + repairs), in the Section 7 currencies.
	Cost Costs
	// Flagged lists every unhealthy block in (partition, block) order.
	Flagged []BlockRepair
}

// Scrub probes every written block of every partition with cheap
// shallow reads (ProbeDepthFactor of the normal sequencing budget,
// PCR behind the store's binding cache), flags blocks whose coverage
// or RS margin has dipped below the policy's floors, and repairs them:
// re-amplification (pool boost of the block's surviving species) for
// thinned-but-complete blocks, full re-synthesis through the batch
// write engine for blocks with extinct slots or corrupted strands —
// retrying a failed repair read with escalating sequencing depth.
// The pass is deterministic: partitions in name order, blocks
// in address order, one probe noise source forked per block in that
// order. A policy with a NaN or infinite field is rejected before any
// probe runs.
func (s *Store) Scrub(pol ScrubPolicy) (*ScrubReport, error) {
	pol, err := pol.normalize()
	if err != nil {
		return nil, err
	}
	costBefore := s.Costs()
	report := &ScrubReport{}

	s.mu.Lock()
	parts := make([]*Partition, 0, len(s.partitions))
	for _, p := range s.partitions {
		parts = append(parts, p)
	}
	s.mu.Unlock()
	sort.Slice(parts, func(i, j int) bool { return parts[i].name < parts[j].name })

	for _, p := range parts {
		if err := p.scrub(pol, report); err != nil {
			return report, err
		}
	}
	costAfter := s.Costs()
	report.Cost = Costs{
		StrandsSynthesized:          costAfter.StrandsSynthesized - costBefore.StrandsSynthesized,
		PrimerPairsUsed:             costAfter.PrimerPairsUsed - costBefore.PrimerPairsUsed,
		ElongatedPrimersSynthesized: costAfter.ElongatedPrimersSynthesized - costBefore.ElongatedPrimersSynthesized,
		ReadsSequenced:              costAfter.ReadsSequenced - costBefore.ReadsSequenced,
		PCRReactions:                costAfter.PCRReactions - costBefore.PCRReactions,
	}
	return report, nil
}

// scrub probes and repairs one partition's written blocks.
func (p *Partition) scrub(pol ScrubPolicy, report *ScrubReport) error {
	// Enumerate written blocks, overflow logs included: their patches
	// decay like any other strands.
	p.mu.Lock()
	blocks := make([]int, 0, len(p.written))
	for b := range p.written {
		if p.written[b] && p.versions[b] >= 0 {
			blocks = append(blocks, b)
		}
	}
	p.mu.Unlock()
	sort.Ints(blocks)
	pl, err := p.planBlocks(blocks, false)
	if err != nil {
		return err
	}

	// Probe phase: shallow reads fanned across the workers. With
	// streaming on, a probe is a floor-stopped strict stream — usually
	// cheaper than the scaled batch probe — and its Coverage comes from
	// the engine's live per-slot accounting rather than being re-derived
	// from the decode's read totals; the scaled batch probe remains the
	// fallback.
	scale := pol.ProbeDepthFactor
	if p.streamingEnabled() {
		scale = 1
	}
	pcrWorkers := p.fanWorkers(len(blocks))
	health := make([]Health, len(blocks))
	parallel.Run(p.workers, len(blocks), func(i int) error {
		results, info, err := p.react(pl.reactions[i], pcrWorkers, wetStrict, scale, false)
		health[i] = p.healthOf(blocks[i], results[blocks[i]], err)
		if info.covAvg > 0 && info.entries > 0 {
			// The engine's live per-slot coverage, normalized by the
			// stream's pore-entry effort: a floor-stopped probe's raw
			// mean sits near the floor whatever the tube's state, so
			// extrapolate what the full ungated budget would have
			// yielded per slot. Healthy tubes stop after a fraction of
			// the budget (high estimate); decayed tubes burn entries on
			// junk and thin species (low estimate) — preserving the
			// batch probe's abundance-decline signal.
			health[i].Coverage = info.covAvg * float64(info.budget) / float64(info.entries)
		}
		return nil
	})
	report.BlocksProbed += len(blocks)

	// Repair phase: serial, in block order.
	for i, b := range blocks {
		h := health[i]
		if !flagged(h, pol) {
			continue
		}
		report.BlocksFlagged++
		repair := BlockRepair{Partition: p.name, Block: b, Health: h, Action: "none"}
		switch action(h, pol) {
		case RepairNone:
			// Diagnosis only.
		case RepairBoost:
			repair.Action = "boost"
			p.store.boostBlock(p.name, b, pol.BoostFactor)
			report.Boosts++
			repair.Repaired = true
		case RepairResynth:
			repair.Action = "resynth"
			repair.Repaired, repair.Retries, repair.Err = p.resynthRepair(b, pol)
			report.Resyntheses++
		}
		if repair.Repaired {
			report.Repaired++
		} else if repair.Action != "none" {
			report.Failed++
		}
		report.Flagged = append(report.Flagged, repair)
	}
	return nil
}

// flagged applies the policy's health floors. A small missing or
// erased count alone does not flag: shallow probes routinely lose a
// slot or two to sampling noise, and the worst-unit RS margin already
// captures real accumulation.
func flagged(h Health, pol ScrubPolicy) bool {
	return h.Err != nil ||
		h.RSMarginUsed >= pol.MaxRSMargin ||
		h.Coverage < pol.MinCoverage
}

// action picks the repair for a diagnosis under the policy: boosting
// re-amplifies what is still in the tube, so it only helps when every
// slot species is alive; extinct slots or corruption past the RS
// margin need fresh strands.
func action(h Health, pol ScrubPolicy) RepairMode {
	switch pol.Repair {
	case RepairNone, RepairBoost, RepairResynth:
		return pol.Repair
	}
	if h.MissingSlots > 0 || h.RSMarginUsed >= pol.MaxRSMargin || errors.Is(h.Err, ErrRSMarginExceeded) || h.Err != nil {
		return RepairResynth
	}
	return RepairBoost
}

// boostBlock re-amplifies every surviving species of the block — one
// targeted PCR whose product is returned to the tube. Misprimed
// species carrying the block's primer amplify too, exactly as they
// would in the real reaction.
func (s *Store) boostBlock(partition string, block int, factor float64) int {
	s.addCosts(func(c *Costs) { c.PCRReactions++ })
	s.wear(1)
	s.tubeMu.Lock()
	defer s.tubeMu.Unlock()
	n := s.tube.Len()
	boosted := 0
	for i := 0; i < n; i++ {
		m := s.tube.MetaAt(i)
		if m.Partition != partition || m.Block != block {
			continue
		}
		if a := s.tube.Abundance(i); a > 0 {
			s.tube.Boost(i, a*(factor-1))
			boosted++
		}
	}
	return boosted
}

// resynthRepair re-reads the block at full depth and re-synthesizes
// every recovered unit verbatim through the batch engine. A failed
// repair read retries up to pol.MaxRetries times, each retry at double
// the previous sequencing depth (the backoff escalation; boosting is
// deliberately avoided here — a permanent amplification would skew the
// whole tube's composition against every other block's reads). If
// retries run out but a partial result exists, the recovered units are
// still re-synthesized (salvage) and the terminal error reports what
// stayed lost.
func (p *Partition) resynthRepair(block int, pol ScrubPolicy) (repaired bool, retries int, err error) {
	scale := 1.0
	var best *decode.BlockResult
	var lastErr error
	for attempt := 0; attempt <= pol.MaxRetries; attempt++ {
		if attempt > 0 {
			scale *= 2
			retries++
		}
		pl, err := p.planBlocks([]int{block}, false)
		if err != nil {
			return false, retries, err
		}
		results, _, rerr := p.react(pl.reactions[0], p.store.cfg.Workers, wetBatch, scale, false)
		res := results[block]
		if res != nil && (best == nil || len(res.Versions) > len(best.Versions)) {
			best = res
		}
		if rerr != nil {
			lastErr = rerr
			continue
		}
		if h := p.healthOf(block, res, nil); h.Err != nil {
			lastErr = h.Err
			continue
		}
		best = res
		lastErr = nil
		break
	}
	var versions []int
	for _, v := range p.expectedVersions(block) {
		if best != nil && best.Versions[v] != nil {
			versions = append(versions, v)
		}
	}
	if len(versions) == 0 {
		if lastErr == nil {
			lastErr = fmt.Errorf("%w: block %d unreadable for repair", decode.ErrDecode, block)
		}
		return false, retries, lastErr
	}
	b := p.Batch()
	for _, v := range versions {
		b.resynthesize(block, v, best.Versions[v])
	}
	if aerr := b.applyRetry(); aerr != nil {
		return false, retries, aerr
	}
	return lastErr == nil, retries, lastErr
}
