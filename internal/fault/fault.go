// Package fault injects deterministic operational failures into the
// simulated wet lab and defines the supervision policy that recovers
// from them.
//
// The store's physics so far degrade gracefully (decay thins strands,
// sequencing is noisy) but every *operation* succeeds: a PCR reaction
// always amplifies, a sequencing run always delivers its budgeted
// reads, a synthesis order always ships, and no foreign material ever
// leaks into a reaction. Real wet labs fail at exactly those
// boundaries. An Injector, built from a seeded Plan, is threaded
// through the stage boundaries of the read and write engines and
// decides — one rng draw per armed stage, from the reaction's own
// deterministically forked source — whether each operation fails,
// degrades, or proceeds.
//
// Determinism contract: a nil *Injector draws nothing and injects
// nothing, so every engine output is byte-identical to a build without
// fault hooks; a stage whose rate is zero draws nothing either. With a
// plan armed, outcomes are a pure function of the caller's rng stream,
// so runs reproduce byte-for-byte at any worker count.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"dnastore/internal/rng"
)

// Typed failure classes a supervised read reports through Health
// records. All are errors.Is-able through whatever wrapping the
// recovery engine applies.
var (
	// ErrReactionFailed classifies a PCR reaction that produced no
	// amplification (observable as a mass gain near 1): the target was
	// never enriched, so the sequencing output is dominated by
	// background. Curable by re-running the reaction.
	ErrReactionFailed = errors.New("fault: PCR reaction failed")
	// ErrRunAborted classifies a sequencing run that aborted
	// mid-flowcell and delivered fewer reads than budgeted. Curable by
	// re-sequencing.
	ErrRunAborted = errors.New("fault: sequencing run aborted")
	// ErrContaminated classifies a reaction whose input pool carried
	// foreign species (cross-tube contamination): the primer-mismatch
	// screen found non-matching material holding a significant share of
	// the amplified mass. Curable by quarantining and re-reading.
	ErrContaminated = errors.New("fault: reaction contaminated by foreign species")
	// ErrRetryBudgetExhausted reports a supervised read that failed
	// every retry its policy allowed; it wraps the last attempt's
	// failure class.
	ErrRetryBudgetExhausted = errors.New("fault: retry budget exhausted")
)

// Plan is a seeded fault campaign: per-stage probabilities and
// severities. The zero value injects nothing. Severities left zero
// select the documented defaults (see withDefaults).
type Plan struct {
	// PCRFail is the probability a PCR reaction fails outright: no
	// amplification at all, the reaction output is the unenriched
	// input pool.
	PCRFail float64
	// PCRPartial is the probability a reaction yields partially; the
	// reaction runs only PCRPartialYield of its thermal cycles
	// (default 0.25).
	PCRPartial      float64
	PCRPartialYield float64
	// SeqAbort is the probability a sequencing run aborts mid-flowcell,
	// delivering only SeqAbortFrac of the budgeted reads (default 0.3).
	SeqAbort     float64
	SeqAbortFrac float64
	// SynthDrop is the probability one synthesis order (a batch
	// write's encoding unit) is dropped by the vendor and never ships.
	SynthDrop float64
	// Contamination is the probability a reaction's input pool is
	// contaminated by a foreign species, added at ContaminantFrac of
	// the pool's total mass (default 0.5). The contaminant carries no
	// library primer, so it amplifies nowhere but consumes sequencing
	// reads in proportion to its mass.
	Contamination   float64
	ContaminantFrac float64
}

// Uniform returns a plan injecting every stage fault at the given
// per-operation rate, severities at their defaults — the campaign
// shape of the dnabench faults study.
func Uniform(rate float64) Plan {
	return Plan{
		PCRFail:       rate,
		PCRPartial:    rate,
		SeqAbort:      rate,
		SynthDrop:     rate,
		Contamination: rate,
	}
}

// withDefaults fills zero severities with the documented defaults.
func (p Plan) withDefaults() Plan {
	if p.PCRPartialYield == 0 {
		p.PCRPartialYield = 0.25
	}
	if p.SeqAbortFrac == 0 {
		p.SeqAbortFrac = 0.3
	}
	if p.ContaminantFrac == 0 {
		p.ContaminantFrac = 0.5
	}
	return p
}

// Validate checks the plan: rates are probabilities, severities are
// positive and the partial yield keeps at least one cycle's worth of
// headroom below a full run.
func (p Plan) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"PCRFail", p.PCRFail}, {"PCRPartial", p.PCRPartial},
		{"SeqAbort", p.SeqAbort}, {"SynthDrop", p.SynthDrop},
		{"Contamination", p.Contamination},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s rate %g outside [0, 1]", r.name, r.v)
		}
	}
	if p.PCRFail+p.PCRPartial > 1 {
		return fmt.Errorf("fault: PCRFail + PCRPartial = %g exceeds 1", p.PCRFail+p.PCRPartial)
	}
	d := p.withDefaults()
	if d.PCRPartialYield <= 0 || d.PCRPartialYield >= 1 {
		return fmt.Errorf("fault: PCRPartialYield %g outside (0, 1)", p.PCRPartialYield)
	}
	if d.SeqAbortFrac <= 0 || d.SeqAbortFrac >= 1 {
		return fmt.Errorf("fault: SeqAbortFrac %g outside (0, 1)", p.SeqAbortFrac)
	}
	if d.ContaminantFrac <= 0 || math.IsInf(d.ContaminantFrac, 0) || math.IsNaN(d.ContaminantFrac) {
		return fmt.Errorf("fault: ContaminantFrac %g not positive", p.ContaminantFrac)
	}
	return nil
}

// Stats counts the faults an injector has fired, across every
// operation of the store's lifetime.
type Stats struct {
	PCRFailures    int64
	PCRPartials    int64
	SeqAborts      int64
	SynthDrops     int64
	Contaminations int64
}

// Injector decides, per operation, whether a stage fault fires. It is
// stateless apart from the fired-fault counters: every decision draws
// from the caller-supplied rng source, so outcomes reproduce
// byte-for-byte from the engine's deterministic fork order. All
// methods are safe on a nil receiver (inject nothing, draw nothing)
// and for concurrent use.
type Injector struct {
	plan Plan

	pcrFailures    atomic.Int64
	pcrPartials    atomic.Int64
	seqAborts      atomic.Int64
	synthDrops     atomic.Int64
	contaminations atomic.Int64
}

// NewInjector validates the plan and returns an injector for it.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p.withDefaults()}, nil
}

// Stats snapshots the fired-fault counters; zero on nil.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		PCRFailures:    in.pcrFailures.Load(),
		PCRPartials:    in.pcrPartials.Load(),
		SeqAborts:      in.seqAborts.Load(),
		SynthDrops:     in.synthDrops.Load(),
		Contaminations: in.contaminations.Load(),
	}
}

// PCROutcome is one reaction's drawn fate.
type PCROutcome struct {
	// Failed means the reaction produced nothing: the output pool is
	// the unenriched input.
	Failed bool
	// CycleFrac is the fraction of thermal cycles the reaction
	// completed (1 for a healthy run, the plan's partial yield for a
	// partial one).
	CycleFrac float64
}

// PCR draws one reaction's outcome. One draw from r when either PCR
// rate is armed; none otherwise.
func (in *Injector) PCR(r *rng.Source) PCROutcome {
	out := PCROutcome{CycleFrac: 1}
	if in == nil || in.plan.PCRFail+in.plan.PCRPartial <= 0 {
		return out
	}
	switch x := r.Float64(); {
	case x < in.plan.PCRFail:
		in.pcrFailures.Add(1)
		out.Failed = true
	case x < in.plan.PCRFail+in.plan.PCRPartial:
		in.pcrPartials.Add(1)
		out.CycleFrac = in.plan.PCRPartialYield
	}
	return out
}

// SeqDeliveredFrac draws one sequencing run's delivered fraction: 1
// for a completed run, the plan's abort fraction for an aborted one.
// One draw from r when the abort rate is armed; none otherwise.
func (in *Injector) SeqDeliveredFrac(r *rng.Source) float64 {
	if in == nil || in.plan.SeqAbort <= 0 {
		return 1
	}
	if r.Float64() < in.plan.SeqAbort {
		in.seqAborts.Add(1)
		return in.plan.SeqAbortFrac
	}
	return 1
}

// DropSynthesis draws whether one synthesis order is dropped by the
// vendor. One draw from r when the drop rate is armed; none otherwise.
func (in *Injector) DropSynthesis(r *rng.Source) bool {
	if in == nil || in.plan.SynthDrop <= 0 {
		return false
	}
	if r.Float64() < in.plan.SynthDrop {
		in.synthDrops.Add(1)
		return true
	}
	return false
}

// ContaminationFrac draws whether a reaction's input pool is
// contaminated, returning the contaminant's mass as a fraction of the
// pool total (0 for a clean reaction). One draw from r when the
// contamination rate is armed; none otherwise.
func (in *Injector) ContaminationFrac(r *rng.Source) float64 {
	if in == nil || in.plan.Contamination <= 0 {
		return 0
	}
	if r.Float64() < in.plan.Contamination {
		in.contaminations.Add(1)
		return in.plan.ContaminantFrac
	}
	return 0
}

// RetryPolicy tunes the supervised recovery engine. The zero value
// selects the defaults noted per field (DefaultRetryPolicy spells them
// out); a negative MaxRetries or MaxSynthRetries disables that budget.
type RetryPolicy struct {
	// MaxRetries bounds the supervised re-reads of one failed block
	// (default 3). Coverage-class failures escalate the sequencing
	// depth by DepthGrowth per retry; reaction failures re-run at the
	// same depth — the reaction, not the budget, was the problem.
	MaxRetries int
	// DepthGrowth is the per-retry sequencing-depth escalation factor
	// (default 2), the same doubling the scrubber's repair reads use.
	DepthGrowth float64
	// HedgeFloor is the per-strand coverage floor (the Heckel limit a
	// durability policy defends) under which a *recovered* read is
	// hedged with one deeper re-read (default 2, matching the scrub
	// policy's MinCoverage): a block that barely decoded this time is
	// one thinning away from not decoding at all, and the hedge
	// verifies the content while the reaction is still warm.
	HedgeFloor float64
	// MaxSynthRetries bounds the write-side QC re-orders of a dropped
	// synthesis unit (default 3). Without a retry policy installed a
	// dropped unit ships empty and the block commits digitally with no
	// physical strands — exactly the silent loss the supervisor exists
	// to prevent.
	MaxSynthRetries int
	// NoQuarantine disables the primer-mismatch screen on supervised
	// retries. By default every retry screens the amplified pool and
	// mass-zeroes species matching none of the store's library
	// primers, so contaminants stop eating the sequencing budget.
	NoQuarantine bool
}

// DefaultRetryPolicy returns the documented defaults.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:      3,
		DepthGrowth:     2,
		HedgeFloor:      2,
		MaxSynthRetries: 3,
	}
}

// Validate rejects a NaN or infinite DepthGrowth or HedgeFloor:
// Normalize's <= tests pass both through, and an infinite growth would
// reach the read engine as an unrepresentable sequencing budget.
func (p RetryPolicy) Validate() error {
	for _, v := range []float64{p.DepthGrowth, p.HedgeFloor} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: retry policy DepthGrowth %g / HedgeFloor %g not finite", p.DepthGrowth, p.HedgeFloor)
		}
	}
	return nil
}

// Normalize fills zero-valued fields with the defaults and clamps
// disabled budgets to zero.
func (p RetryPolicy) Normalize() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxRetries == 0 {
		p.MaxRetries = def.MaxRetries
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.DepthGrowth <= 1 {
		p.DepthGrowth = def.DepthGrowth
	}
	if p.HedgeFloor <= 0 {
		p.HedgeFloor = def.HedgeFloor
	}
	if p.MaxSynthRetries == 0 {
		p.MaxSynthRetries = def.MaxSynthRetries
	}
	if p.MaxSynthRetries < 0 {
		p.MaxSynthRetries = 0
	}
	return p
}
