// Package binding computes and caches primer-pair ⇄ template binding
// alignments, the innermost work of every simulated PCR cycle.
//
// A binding is a pure function of (forward primer, reverse primer,
// template sequence, distance budget): whether the pair anneals within
// the budget, at what combined edit distance, and where the forward
// match ends on the template. Nothing else — not abundance, not cycle
// number, not temperature — enters the alignment, so a computed binding
// is an immutable fact that can be shared across reactions, partitions
// and concurrent readers. pcr.Run consults a Provider for these facts;
// the Direct provider recomputes them per reaction (the historical
// behavior), while Cache remembers them store-wide — content-addressed
// for durability across pools, with index-addressed per-pool rows as a
// lock-free fast path — so a range read over K blocks aligns each
// primer against the mostly-unchanged tube once instead of K times.
//
// A primer anneals only at the template's ends, so the alignment reads
// just the first and last primer-length-plus-AlignSlack bases. Cache
// keys its content store on those windows and the base count, not on
// the whole template: decay mutants that differ only in payload bases
// share one entry.
package binding

import (
	"encoding/binary"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
)

// Binding-state values. A Reaction's Bind never returns Unknown; the
// zero value exists so callers can use it as the "not yet asked" marker
// in their own per-reaction tables.
const (
	Unknown uint8 = iota // not yet aligned
	None                 // aligned, no binding within the budget
	OK                   // aligned, binds with the recorded distance
)

// Binding is the outcome of aligning one primer pair against one
// template.
type Binding struct {
	Dist  int32 // combined forward+reverse edit distance
	End   int32 // template position where the forward primer's match ends
	State uint8
}

// Pair is one primer pair participating in a reaction.
type Pair struct {
	Fwd dna.Seq
	Rev dna.Seq
}

// Provider supplies binding alignments to PCR reactions.
// Implementations must be safe for concurrent use by many reactions.
type Provider interface {
	// Begin starts one reaction over the given primer pairs with the
	// given per-pair edit-distance budget and returns its binding view.
	// input is the reaction's template pool before amplification; a
	// caching provider may use its identity (pool.Version) to assemble
	// index-addressed rows, while Direct ignores it.
	Begin(pairs []Pair, maxDist int, input *pool.Pool) Reaction
}

// Reaction is one reaction's view of the binding facts. Bind is called
// at most once per (species, pair) per reaction — the reaction's own
// dense table memoizes the answer — but those calls fan out across the
// scoring workers, so implementations must be safe for concurrent use.
type Reaction interface {
	// Bind aligns pair pi against template, returning a Binding whose
	// State is None or OK (never Unknown). The template is a packed
	// view — typically pool.PackedSeq's zero-copy alias of the
	// reaction pool's arena — and only the primer-length prefix and
	// suffix are ever unpacked. si is the template's species index in
	// the reaction pool: indexes below the input pool's length at
	// Begin denote the input species in order (append-only pools
	// never reassign them, so they are stable addresses); higher
	// indexes are reaction-local products and carry no identity.
	Bind(pi, si int, template dna.Packed) Binding
}

// AlignSlack is how many extra template bases beyond the primer length
// the aligner may consume, accommodating indels.
const AlignSlack = 6

// compiledPair carries one primer pair's bit-parallel Eq tables, so the
// per-template alignments only stream template bases.
type compiledPair struct {
	fwd *dna.Pattern
	rev *dna.Pattern
}

// bindPacked aligns a compiled primer pair against a packed template
// view, unpacking only the forward window (primer length plus slack
// from the front) and the reverse window (from the back) into a stack
// array — never the payload between them. Both alignments are bounded
// by the remaining distance budget and allocate nothing.
func (cp compiledPair) bindPacked(template dna.Packed, maxDist int) Binding {
	n := template.Len()
	var buf [dna.MaxPatternLen + AlignSlack]dna.Base
	w := template.AppendRange(buf[:0], 0, min(cp.fwd.Len()+AlignSlack, n))
	dFwd, end, ok := cp.fwd.PrefixAlignmentAtMost(w, maxDist)
	if !ok {
		return Binding{State: None}
	}
	w = template.AppendRange(buf[:0], n-min(cp.rev.Len()+AlignSlack, n), n)
	dRev, ok := cp.rev.SuffixAlignmentAtMost(w, maxDist-dFwd)
	if !ok {
		return Binding{State: None}
	}
	return Binding{Dist: int32(dFwd + dRev), End: int32(end), State: OK}
}

// Direct is the no-reuse provider: Begin compiles the pairs and every
// Bind aligns from scratch. It reproduces the historical per-reaction
// behavior exactly and is the default when no provider is configured.
type Direct struct{}

// Begin compiles the pairs for one reaction.
func (Direct) Begin(pairs []Pair, maxDist int, _ *pool.Pool) Reaction {
	return &directReaction{pairs: compilePairs(pairs), maxDist: maxDist}
}

type directReaction struct {
	pairs   []compiledPair
	maxDist int
}

func (r *directReaction) Bind(pi, _ int, template dna.Packed) Binding {
	return r.pairs[pi].bindPacked(template, r.maxDist)
}

// compilePairs builds the alignment tables for every pair.
func compilePairs(pairs []Pair) []compiledPair {
	out := make([]compiledPair, len(pairs))
	for i, p := range pairs {
		out[i] = compiledPair{fwd: dna.CompilePattern(p.Fwd), rev: dna.CompilePattern(p.Rev)}
	}
	return out
}

// appendPairKey appends the content key of (pair, maxDist) to buf. Each
// packed field is preceded by its base count, so the concatenation of a
// pair key and a template key below is unambiguous: two key streams
// that compare equal byte for byte describe the same primers, budget
// and template.
func appendPairKey(buf []byte, p Pair, maxDist int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Fwd)))
	buf = dna.AppendPacked(buf, p.Fwd)
	buf = binary.AppendUvarint(buf, uint64(len(p.Rev)))
	buf = dna.AppendPacked(buf, p.Rev)
	return binary.AppendUvarint(buf, uint64(maxDist))
}
