// Package channel injects insertion, deletion and substitution (IDS)
// errors into DNA sequences, modeling the combined noise of synthesis,
// storage, PCR and sequencing (Section 2.1.2; error characterization
// follows Keoliya et al. [18]).
package channel

import (
	"fmt"
	"math"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Rates holds per-base error probabilities.
type Rates struct {
	Sub float64 // substitution probability per base
	Ins float64 // insertion probability per position
	Del float64 // deletion probability per base
}

// Total returns the aggregate per-base error rate.
func (r Rates) Total() float64 { return r.Sub + r.Ins + r.Del }

// Validate checks the rates are usable probabilities.
func (r Rates) Validate() error {
	if r.Sub < 0 || r.Ins < 0 || r.Del < 0 {
		return fmt.Errorf("channel: negative rate %+v", r)
	}
	if r.Total() >= 1 {
		return fmt.Errorf("channel: total rate %.3f >= 1", r.Total())
	}
	return nil
}

// Illumina returns rates typical for Illumina sequencing of synthesized
// DNA (dominated by synthesis deletions), matching published
// characterizations of end-to-end DNA storage error rates.
func Illumina() Rates { return Rates{Sub: 0.004, Ins: 0.001, Del: 0.005} }

// Nanopore returns rates typical for nanopore sequencing, an order of
// magnitude noisier than Illumina.
func Nanopore() Rates { return Rates{Sub: 0.03, Ins: 0.02, Del: 0.04} }

// Noiseless returns zero error rates.
func Noiseless() Rates { return Rates{} }

// Corrupt returns a noisy copy of seq under the given rates. The
// original is not modified. Each position independently suffers a
// deletion, a substitution to a uniformly random different base, or is
// preceded by a geometric number of insertions of uniformly random
// bases — the same error model as drawing one Bernoulli trial per
// position, but sampled by geometric gap-skipping so the work (and the
// random-number consumption) is proportional to the number of error
// events rather than to the read length. At the ~1% combined rates the
// sequencers exhibit, that is a ~100x reduction in draws on the
// sequencing hot path.
func Corrupt(r *rng.Source, seq dna.Seq, rates Rates) dna.Seq {
	return AppendCorrupt(nil, r, seq, rates)
}

// AppendCorrupt appends a noisy copy of seq to dst and returns the
// extended slice. It consumes r exactly as Corrupt does, so a caller
// that reuses one buffer per read (dst[:0]) draws the same reads
// without allocating them. seq must not overlap dst's spare capacity.
func AppendCorrupt(dst dna.Seq, r *rng.Source, seq dna.Seq, rates Rates) dna.Seq {
	n := len(seq)
	out := dst
	if cap(out)-len(out) < n+4 {
		out = make(dna.Seq, len(dst), len(dst)+n+4)
		copy(out, dst)
	}
	perBase := rates.Del + rates.Sub
	if rates.Ins <= 0 && perBase <= 0 {
		return append(out, seq...)
	}
	// nextIns indexes insertion slots (before base i; slot n is the read
	// end); nextErr indexes bases suffering deletion or substitution.
	// Gap sampling by inversion is exact: P(gap = g) = (1-p)^g * p.
	nextIns, nextErr := n+1, n
	var invLogIns, invLogErr float64
	if rates.Ins > 0 {
		invLogIns = 1 / math.Log1p(-rates.Ins)
		nextIns = geomGap(r, invLogIns)
	}
	if perBase > 0 {
		invLogErr = 1 / math.Log1p(-perBase)
		nextErr = geomGap(r, invLogErr)
	}
	i := 0
	for {
		stop := nextIns
		if nextErr < stop {
			stop = nextErr
		}
		if stop > n {
			stop = n
		}
		out = append(out, seq[i:stop]...) // error-free stretch
		i = stop
		if nextIns == i {
			out = append(out, dna.Base(r.Intn(4)))
			nextIns = i + geomGap(r, invLogIns) // gap 0: same slot again
			continue
		}
		if i >= n {
			break
		}
		if nextErr == i {
			// An error event: deletion with conditional probability
			// Del/(Del+Sub), else substitution to a different base.
			if r.Float64()*perBase >= rates.Del {
				out = append(out, dna.Base((int(seq[i])+1+r.Intn(3))%4))
			}
			i++
			nextErr = i + geomGap(r, invLogErr)
			continue
		}
		break
	}
	return out
}

// geomGap draws the number of Bernoulli failures before the next
// success, given invLog = 1/log(1-p), via inversion of the geometric
// CDF.
func geomGap(r *rng.Source, invLog float64) int {
	u := 1 - r.Float64() // (0, 1]
	g := math.Log(u) * invLog
	if g >= 1<<30 {
		return 1 << 30
	}
	return int(g)
}
