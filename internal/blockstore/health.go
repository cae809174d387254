package blockstore

import (
	"errors"
	"fmt"

	"dnastore/internal/decode"
	"dnastore/internal/fault"
	"dnastore/internal/layout"
)

// Health is the per-block condition report of a health-aware read or a
// scrub probe: how close the block is to undecodability, in the two
// currencies that matter for durability — sequencing coverage (the
// Heckel floor a repair policy defends) and the Reed-Solomon erasure
// margin its units have already spent.
type Health struct {
	Block int
	// Recovered reports whether the block's current content was fully
	// reconstructed (original version plus every patch).
	Recovered bool
	// Err classifies the failure when Recovered is false: errors.Is
	// against ErrInsufficientCoverage (curable by deeper sequencing or
	// re-amplification) or ErrRSMarginExceeded (the strands themselves
	// are corrupted; only re-synthesis cures it). nil when recovered.
	Err error
	// Units is the number of (block, version) encoding units observed,
	// recovered or not.
	Units int
	// Coverage estimates the sequencing reads per strand that supported
	// the access — compare against Config.CoverageDepth.
	Coverage float64
	// MissingSlots and ErasedSlots count strand slots never observed
	// and observed slots the decoder erased, across the block's units.
	MissingSlots int
	ErasedSlots  int
	// Corrected is the number of RS symbol corrections applied.
	Corrected int
	// RSMarginUsed is the worst single unit's consumed erasure budget:
	// the unit's missing plus erased slots over its parity slot count,
	// a failed unit counting at least parity+1 slots spent. 0 is a
	// pristine block; up to 1 every unit decodes (exactly 1 spent its
	// whole parity), above 1 some unit is unrecoverable — Reed-Solomon
	// lives or dies per unit, so the block's durability is its weakest
	// unit's margin, not an average.
	RSMarginUsed float64
}

// healthOf condenses a decode outcome into a Health report, counting
// only the versions the partition tables say physically exist. res may
// be nil (the retrieval itself failed); err is the access error, if
// any. The caller must not hold p.mu.
func (p *Partition) healthOf(block int, res *decode.BlockResult, err error) Health {
	h := Health{Block: block, Err: err}
	exp := p.expectedVersions(block)
	mol := layout.UnitMolecules
	parity := mol - layout.UnitDataMolecules
	h.Units = len(exp)
	if res == nil {
		h.MissingSlots = h.Units * mol
		if h.Units > 0 {
			h.RSMarginUsed = float64(mol) / float64(parity)
		}
		if h.Err == nil {
			h.Err = fmt.Errorf("%w: block %d", decode.ErrInsufficientCoverage, block)
		}
		return h
	}
	reads := 0
	var coverageErr, marginErr error
	worst := 0
	for _, v := range exp {
		u, observed := res.Units[v]
		if !observed {
			// The unit never produced a single primary strand.
			h.MissingSlots += mol
			worst = max(worst, mol)
			if coverageErr == nil {
				coverageErr = fmt.Errorf("%w: block %d version %d never observed",
					decode.ErrInsufficientCoverage, block, v)
			}
			continue
		}
		h.MissingSlots += u.Missing
		h.ErasedSlots += u.Erased
		h.Corrected += u.Corrected
		reads += u.Reads
		spent := u.Missing + u.Erased
		if u.Err != nil {
			// A unit that failed with few slots lost still spent more than
			// its parity: its strands hold errors the code cannot place.
			spent = max(spent, parity+1)
			// A failed unit whose read support sits far below the
			// configured depth failed for lack of material, whatever the
			// decoder tripped on: the observed slots are mostly phantoms
			// conjured by index misreads of other blocks' strands.
			starved := float64(u.Reads) < float64(mol)*p.store.cfg.CoverageDepth/2
			switch {
			case starved:
				if coverageErr == nil {
					coverageErr = fmt.Errorf("%w: block %d version %d: %d reads for %d strands",
						decode.ErrInsufficientCoverage, block, v, u.Reads, mol)
				}
			case errors.Is(u.Err, ErrRSMarginExceeded):
				marginErr = u.Err
			default:
				if coverageErr == nil {
					coverageErr = u.Err
				}
			}
		}
		worst = max(worst, spent)
	}
	if h.Units > 0 {
		h.Coverage = float64(reads) / float64(h.Units*mol)
		h.RSMarginUsed = float64(worst) / float64(parity)
	}
	// Permanent corruption dominates a curable coverage shortfall. The
	// access error's own class is recomputed here too: the decoder
	// summarizes over every unit it saw, phantoms included, while the
	// per-unit pass above is filtered to the versions that physically
	// exist. Infrastructure errors pass through untouched.
	class := coverageErr
	if marginErr != nil {
		class = marginErr
	}
	if class != nil && (h.Err == nil || errors.Is(h.Err, decode.ErrDecode)) {
		h.Err = class
	}
	h.Recovered = h.Err == nil
	return h
}

// Operational-fault classification thresholds. A healthy elongated PCR
// multiplies the pool's mass many-fold; a gain this close to 1 means
// the reaction never amplified. A screened read whose foreign mass
// fraction reaches the contamination floor failed because contaminant
// consumed its sequencing budget.
const (
	failedGainCeiling = 1.2
	contaminatedFloor = 0.2
)

// classifyHealth condenses a wet read into its Health report and, when
// the read failed under a fault injector, prefixes the failure with
// its typed operational class so supervisors (and errors.Is callers)
// can pick the right cure: re-read a failed reaction at the same
// depth, re-sequence an aborted run, quarantine a contaminated one.
// Contamination is only observable on screened reads; the priority
// order mirrors the causal chain (foreign mass starves the budget
// before delivery shortfall does).
func (p *Partition) classifyHealth(block int, res *decode.BlockResult, err error, info wetInfo) Health {
	h := p.healthOf(block, res, err)
	if h.Recovered || p.store.cfg.Faults == nil {
		return h
	}
	switch {
	case info.foreignFrac >= contaminatedFloor:
		h.Err = fmt.Errorf("%w (foreign mass %.0f%%): %w", fault.ErrContaminated, info.foreignFrac*100, h.Err)
	case info.gain > 0 && info.gain <= failedGainCeiling:
		h.Err = fmt.Errorf("%w (gain %.2f): %w", fault.ErrReactionFailed, info.gain, h.Err)
	case info.truncated:
		h.Err = fmt.Errorf("%w (%d of %d reads): %w", fault.ErrRunAborted, info.delivered, info.budget, h.Err)
	}
	return h
}
