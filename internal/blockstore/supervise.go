package blockstore

import (
	"errors"
	"fmt"

	"dnastore/internal/fault"
)

// RecoveryReport summarizes what one supervised read's recovery engine
// did: which failures it saw, what it retried, and what the recovery
// cost beyond the initial pass.
type RecoveryReport struct {
	// Blocks is the number of blocks the access covered.
	Blocks int
	// Failures is how many failed the initial (unsupervised) pass.
	Failures int
	// Recovered is how many initially failed blocks supervision read
	// back correctly.
	Recovered int
	// Exhausted is how many blocks failed every retry the policy
	// allowed; their Health.Err wraps fault.ErrRetryBudgetExhausted
	// around the last attempt's failure class.
	Exhausted int
	// Retries and Hedges count the extra wet reads: retries re-read
	// failed blocks, hedges re-verify recovered blocks whose coverage
	// landed below the policy's Heckel floor.
	Retries int
	Hedges  int
	// Attempts is the per-block wet read count, in access order (the
	// initial read counts as 1). MaxAttempts is its maximum.
	Attempts    []int
	MaxAttempts int
	// QuarantinedSpecies counts foreign species the contamination
	// screen mass-zeroed across all supervised attempts.
	QuarantinedSpecies int
	// ReactionFailures and AbortedRuns count supervised attempts
	// classified as failed PCR reactions and aborted sequencing runs.
	ReactionFailures int
	AbortedRuns      int
	// ExtraReads is the sequencing reads consumed by retries and
	// hedges — the recovery cost on top of the initial pass.
	ExtraReads int
}

// superviseAttempt performs one supervised wet re-read of a block:
// the block front-end (primer charging, noise fork, wear) and the
// block's reaction at the given depth scale, streamed strictly and
// assembled with its health. Supervision runs serially after any
// parallel fan, so the front-end work keeps its deterministic order.
func (p *Partition) superviseAttempt(block int, scale float64, screen bool) ([]byte, Health, wetInfo) {
	pl, err := p.planBlocks([]int{block}, true)
	if err != nil {
		return nil, p.healthOf(block, nil, err), wetInfo{}
	}
	rx := pl.reactions[0]
	workers := p.store.cfg.Workers
	results, info, err := p.react(rx, workers, wetNoSlack, scale, screen)
	content, h, _ := p.assemble(rx.src, block, results[block], err, info, workers) // h.Err carries the failure
	return content, h, info
}

// supervise runs the recovery engine over an initial health pass,
// repairing content and health in place. For every failed block it
// retries up to the policy budget, escalating the sequencing depth by
// DepthGrowth per attempt — except after a classified reaction
// failure, where the reaction (not the budget) was the problem and the
// re-read repeats the same depth. Retries screen the amplified pool
// for contamination unless the policy disables quarantine. Recovered
// blocks whose coverage landed below the policy's Heckel floor get one
// hedged deeper re-read. Escalation starts from base, the initial
// pass's depth scale. The loop is serial and in access order, so
// supervised results are byte-identical at any worker count.
func (p *Partition) supervise(content [][]byte, health []Health, base float64) *RecoveryReport {
	pol := fault.DefaultRetryPolicy()
	if p.store.cfg.Retry != nil {
		pol = *p.store.cfg.Retry
	}
	pol = pol.Normalize()
	rep := &RecoveryReport{Blocks: len(health), Attempts: make([]int, len(health))}
	for i := range rep.Attempts {
		rep.Attempts[i] = 1
	}
	screen := !pol.NoQuarantine
	record := func(i int, h Health, info wetInfo) {
		rep.Attempts[i]++
		rep.ExtraReads += info.delivered
		rep.QuarantinedSpecies += info.quarantined
		if h.Err != nil {
			if errors.Is(h.Err, fault.ErrReactionFailed) {
				rep.ReactionFailures++
			}
			if errors.Is(h.Err, fault.ErrRunAborted) {
				rep.AbortedRuns++
			}
		}
	}
	for i := range health {
		block := health[i].Block
		if health[i].Recovered {
			if health[i].Coverage < pol.HedgeFloor && pol.MaxRetries > 0 {
				// The block decoded, but on coverage one thinning away
				// from failure: hedge with one deeper read while the
				// evidence is fresh, adopting the result if it holds.
				c, h, info := p.superviseAttempt(block, base*pol.DepthGrowth, screen)
				rep.Hedges++
				record(i, h, info)
				if h.Recovered {
					content[i], health[i] = c, h
				}
			}
			continue
		}
		rep.Failures++
		last := health[i]
		scale := base
		recovered := false
		for attempt := 0; attempt < pol.MaxRetries; attempt++ {
			if !errors.Is(last.Err, fault.ErrReactionFailed) {
				scale *= pol.DepthGrowth
			}
			c, h, info := p.superviseAttempt(block, scale, screen)
			rep.Retries++
			record(i, h, info)
			last = h
			if h.Recovered {
				content[i], health[i] = c, h
				recovered = true
				rep.Recovered++
				break
			}
		}
		if !recovered {
			rep.Exhausted++
			last.Err = fmt.Errorf("%w: block %d after %d attempts: %w",
				fault.ErrRetryBudgetExhausted, block, rep.Attempts[i], last.Err)
			content[i] = nil
			health[i] = last
		}
	}
	for _, a := range rep.Attempts {
		rep.MaxAttempts = max(rep.MaxAttempts, a)
	}
	return rep
}
