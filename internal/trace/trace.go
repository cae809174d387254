// Package trace reconstructs an original DNA strand from a cluster of
// noisy reads containing insertion, deletion and substitution errors.
//
// The algorithm is the double-sided Bitwise Majority Alignment (BMA) the
// paper's decoder uses (Section 8, step 3, following Lin et al. [20]):
// a forward BMA pass and a backward BMA pass are stitched at the middle,
// which contains the error accumulation that plagues one-sided BMA at
// the far end of the strand.
package trace

import (
	"errors"
	"fmt"

	"dnastore/internal/dna"
)

// ErrNoReads is returned when reconstruction is attempted on an empty
// cluster.
var ErrNoReads = errors.New("trace: no reads to reconstruct from")

// Workspace owns the buffers of strand reconstruction: the BMA
// cursors, the forward, backward and spliced consensuses, the ensemble
// group subsets and consensuses, and the refinement vote tables,
// alignment planes and per-round outputs. Reusing one Workspace across
// clusters makes reconstruction allocation-free once its buffers have
// grown to the working size. A consensus returned by a Workspace method
// aliases the workspace and stays valid only until the next call on it;
// a Workspace is not safe for concurrent use. The zero value is ready.
type Workspace struct {
	cursors, stalls []int
	fwd, bwd        dna.Seq     // one-sided BMA outputs
	cons            dna.Seq     // DoubleSided / Ensemble result
	subsets         [][]dna.Seq // Ensemble group read subsets
	groups          []dna.Seq   // Ensemble group consensuses
	rounds          [2]dna.Seq  // Refine ping-pong round outputs
	refine          refineScratch
}

// BMA reconstructs a strand of the given length from noisy reads using
// one-sided (forward) bitwise majority alignment. Each read maintains a
// cursor; at every output position the reads vote on the current symbol,
// and cursors advance according to whether each read agrees, appears to
// contain an insertion (next symbol matches the winner), or appears to
// have dropped the winner (deletion).
func BMA(reads []dna.Seq, length int) (dna.Seq, error) {
	var w Workspace
	return w.bma(reads, length, false, nil)
}

// bma is the BMA core; it appends the consensus to dst[:0]. With
// backward set, every read is consumed right-to-left without
// materializing reversed copies, and the consensus is that of the
// reversed strand.
func (w *Workspace) bma(reads []dna.Seq, length int, backward bool, dst dna.Seq) (dna.Seq, error) {
	if len(reads) == 0 {
		return nil, ErrNoReads
	}
	if length <= 0 {
		return nil, fmt.Errorf("trace: non-positive length %d", length)
	}
	cursors := resize(w.cursors, len(reads))
	stalls := resize(w.stalls, len(reads))
	w.cursors, w.stalls = cursors, stalls
	clear(cursors)
	clear(stalls)
	out := resize(dst, length)[:0]
	// at reads the cursor-th symbol in traversal order.
	at := func(r dna.Seq, c int) dna.Base {
		if backward {
			return r[len(r)-1-c]
		}
		return r[c]
	}
	for pos := 0; pos < length; pos++ {
		var votes [4]int
		voters := 0
		for i, r := range reads {
			if cursors[i] < len(r) {
				votes[at(r, cursors[i])]++
				voters++
			}
		}
		if voters == 0 {
			// All reads exhausted: pad with A to preserve length; the
			// outer Reed-Solomon code treats the tail as noise.
			out = append(out, dna.A)
			continue
		}
		winner := dna.A
		best := -1
		for b := 0; b < 4; b++ {
			if votes[b] > best {
				best = votes[b]
				winner = dna.Base(b)
			}
		}
		out = append(out, winner)
		for i, r := range reads {
			c := cursors[i]
			switch {
			case c >= len(r):
				// exhausted
			case at(r, c) == winner:
				cursors[i] = c + 1
				stalls[i] = 0
			case c+1 < len(r) && at(r, c+1) == winner:
				// The read has one extra symbol: insertion before the
				// winner. Skip both.
				cursors[i] = c + 2
				stalls[i] = 0
			default:
				// The read is missing the winner (deletion) or carries a
				// substitution. Assume deletion once; if the read stalls
				// repeatedly, treat it as a substitution and advance to
				// avoid desynchronizing the rest of the strand.
				stalls[i]++
				if stalls[i] >= 2 {
					cursors[i] = c + 1
					stalls[i] = 0
				}
			}
		}
	}
	return out, nil
}

// Ensemble reconstructs a strand by splitting the cluster into groups,
// running double-sided BMA on each, and voting position-wise across the
// group consensuses. BMA's residual errors (cursor drift concentrated
// mid-strand) are largely independent across disjoint read subsets, so
// the vote suppresses them quadratically — which matters on high-error
// channels such as nanopore. Clusters too small to split fall back to a
// single double-sided pass.
func Ensemble(reads []dna.Seq, length, groups int) (dna.Seq, error) {
	var w Workspace
	return w.Ensemble(reads, length, groups)
}

// Ensemble is the package-level Ensemble computed in w's buffers; the
// result aliases w.
func (w *Workspace) Ensemble(reads []dna.Seq, length, groups int) (dna.Seq, error) {
	if groups < 2 || len(reads) < 3*groups {
		return w.DoubleSided(reads, length)
	}
	if len(w.subsets) < groups {
		w.subsets = append(w.subsets, make([][]dna.Seq, groups-len(w.subsets))...)
		w.groups = append(w.groups, make([]dna.Seq, groups-len(w.groups))...)
	}
	for g := 0; g < groups; g++ {
		subset := w.subsets[g][:0]
		for i := g; i < len(reads); i += groups {
			subset = append(subset, reads[i])
		}
		w.subsets[g] = subset
		c, err := w.doubleSided(subset, length, w.groups[g])
		if err != nil {
			return nil, err
		}
		w.groups[g] = c
	}
	out := resize(w.cons, length)
	w.cons = out
	for pos := 0; pos < length; pos++ {
		var votes [4]int
		for _, c := range w.groups[:groups] {
			votes[c[pos]]++
		}
		best := -1
		for b := 0; b < 4; b++ {
			if votes[b] > best {
				best = votes[b]
				out[pos] = dna.Base(b)
			}
		}
	}
	return out, nil
}

// DoubleSided reconstructs a strand of the given length with the
// two-sided BMA: the first half comes from a forward pass and the second
// half from a backward pass over reversed reads, confining cursor-drift
// errors to the middle of the strand.
func DoubleSided(reads []dna.Seq, length int) (dna.Seq, error) {
	var w Workspace
	return w.DoubleSided(reads, length)
}

// DoubleSided is the package-level DoubleSided computed in w's buffers;
// the result aliases w.
func (w *Workspace) DoubleSided(reads []dna.Seq, length int) (dna.Seq, error) {
	out, err := w.doubleSided(reads, length, w.cons)
	if err != nil {
		return nil, err
	}
	w.cons = out
	return out, nil
}

// doubleSided writes the double-sided consensus into dst's storage.
func (w *Workspace) doubleSided(reads []dna.Seq, length int, dst dna.Seq) (dna.Seq, error) {
	forward, err := w.bma(reads, length, false, w.fwd)
	if err != nil {
		return nil, err
	}
	w.fwd = forward
	// The backward pass walks the reads right-to-left in place; only its
	// output needs reversing.
	backward, err := w.bma(reads, length, true, w.bwd)
	if err != nil {
		return nil, err
	}
	w.bwd = backward
	for i, j := 0, len(backward)-1; i < j; i, j = i+1, j-1 {
		backward[i], backward[j] = backward[j], backward[i]
	}
	out := resize(dst, length)
	half := length / 2
	copy(out[:half], forward[:half])
	copy(out[half:], backward[half:])
	return out, nil
}

// resize returns buf resliced to n elements, reallocating only when
// its capacity is short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
