// Package primer implements PCR primer design and primer-library search.
//
// Main access primers must satisfy chemistry constraints (Sections 1 and
// 2.1.4): balanced GC content, no long homopolymers, a melting temperature
// near the PCR annealing point, and — critically — high mutual Hamming
// distance from every other primer in the pool, which is what limits the
// usable library to roughly 1000-3000 primers of length 20. The greedy
// search here reproduces the methodology of Organick et al. that the paper
// re-ran for length 30 ("we managed to find only around 10K primers").
package primer

import (
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// Constraints captures the acceptance rules for a single primer.
type Constraints struct {
	Length         int     // primer length in bases (paper: 20)
	GCMin, GCMax   float64 // allowed GC-content window (paper: ~0.45-0.55)
	MaxHomopolymer int     // longest allowed run of one base (typ. 3)
	TmMin, TmMax   float64 // melting temperature window in Celsius
	// MinPairDistance is the minimum Hamming distance required between
	// any two primers in the same library.
	MinPairDistance int
	// NoSelfComplement3 rejects primers whose 3' tail is self-
	// complementary (primer-dimer risk) when true.
	NoSelfComplement3 bool
}

// DefaultConstraints returns the constraint set used for 20-base main
// primers, mirroring the published methodology.
func DefaultConstraints() Constraints {
	return Constraints{
		Length:            20,
		GCMin:             0.45,
		GCMax:             0.55,
		MaxHomopolymer:    3,
		TmMin:             50,
		TmMax:             65,
		MinPairDistance:   6,
		NoSelfComplement3: true,
	}
}

// Check reports whether a candidate sequence satisfies the single-primer
// constraints (not the pairwise distance, which depends on the library).
func (c Constraints) Check(s dna.Seq) error {
	if len(s) != c.Length {
		return fmt.Errorf("primer: length %d, want %d", len(s), c.Length)
	}
	if gc := s.GCContent(); gc < c.GCMin || gc > c.GCMax {
		return fmt.Errorf("primer: GC content %.2f outside [%.2f, %.2f]", gc, c.GCMin, c.GCMax)
	}
	if hp := s.MaxHomopolymer(); hp > c.MaxHomopolymer {
		return fmt.Errorf("primer: homopolymer run %d exceeds %d", hp, c.MaxHomopolymer)
	}
	if tm := s.MeltingTemp(); tm < c.TmMin || tm > c.TmMax {
		return fmt.Errorf("primer: Tm %.1f outside [%.1f, %.1f]", tm, c.TmMin, c.TmMax)
	}
	if c.NoSelfComplement3 && selfComplementary3(s) {
		return fmt.Errorf("primer: self-complementary 3' tail")
	}
	return nil
}

// selfComplementary3 reports whether the last 4 bases are the reverse
// complement of themselves (a cheap primer-dimer proxy).
func selfComplementary3(s dna.Seq) bool {
	const tail = 4
	if len(s) < tail {
		return false
	}
	t := s[len(s)-tail:]
	return t.Equal(t.ReverseComplement())
}

// Library is a set of mutually compatible primers.
type Library struct {
	constraints Constraints
	primers     []dna.Seq
}

// NewLibrary returns an empty library with the given constraints.
func NewLibrary(c Constraints) *Library {
	return &Library{constraints: c}
}

// Primers returns the accepted primers in insertion order. The returned
// slice is shared; callers must not modify it.
func (l *Library) Primers() []dna.Seq { return l.primers }

// Len returns the number of primers in the library.
func (l *Library) Len() int { return len(l.primers) }

// Add attempts to add a primer, returning an error if it violates the
// single-primer constraints or is too close to an existing member.
func (l *Library) Add(s dna.Seq) error {
	if err := l.constraints.Check(s); err != nil {
		return err
	}
	for _, p := range l.primers {
		if dna.HammingAtMost(p, s, l.constraints.MinPairDistance-1) {
			return fmt.Errorf("primer: within distance %d of existing primer %s",
				l.constraints.MinPairDistance-1, p)
		}
	}
	l.primers = append(l.primers, s.Clone())
	return nil
}

// Pair returns the i-th primer pair (forward, reverse) from the library,
// consuming two primers per pair. It returns an error when the library
// has fewer than 2(i+1) primers.
func (l *Library) Pair(i int) (fwd, rev dna.Seq, err error) {
	if 2*i+1 >= len(l.primers) {
		return nil, nil, fmt.Errorf("primer: library has %d primers, pair %d unavailable",
			len(l.primers), i)
	}
	return l.primers[2*i], l.primers[2*i+1], nil
}

// SearchResult reports the outcome of a greedy library search.
type SearchResult struct {
	Accepted       int // primers admitted into the library
	Candidates     int // random candidates generated
	RejectedSingle int // failed single-primer constraints
	RejectedPair   int // failed the pairwise distance constraint
}

// Search grows the library by generating random candidates and greedily
// admitting those that satisfy all constraints, until either maxPrimers
// are admitted or maxCandidates candidates have been examined. This is
// the standard greedy methodology whose yield the paper cites.
func (l *Library) Search(r *rng.Source, maxPrimers, maxCandidates int) SearchResult {
	var res SearchResult
	for res.Candidates < maxCandidates && l.Len() < maxPrimers {
		res.Candidates++
		cand := randomPrimer(r, l.constraints.Length)
		if err := l.constraints.Check(cand); err != nil {
			res.RejectedSingle++
			continue
		}
		ok := true
		for _, p := range l.primers {
			if dna.HammingAtMost(p, cand, l.constraints.MinPairDistance-1) {
				ok = false
				break
			}
		}
		if !ok {
			res.RejectedPair++
			continue
		}
		l.primers = append(l.primers, cand)
		res.Accepted++
	}
	return res
}

// randomPrimer generates a uniformly random sequence of length n.
func randomPrimer(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

// MinPairwiseDistance returns the smallest Hamming distance between any
// two primers in the library, or -1 for libraries with fewer than two
// primers. Used by tests and the library-quality report.
func (l *Library) MinPairwiseDistance() int {
	if len(l.primers) < 2 {
		return -1
	}
	best := l.constraints.Length + 1
	for i := 0; i < len(l.primers); i++ {
		for j := i + 1; j < len(l.primers); j++ {
			if d := dna.Hamming(l.primers[i], l.primers[j]); d < best {
				best = d
			}
		}
	}
	return best
}
