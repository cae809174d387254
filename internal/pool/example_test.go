package pool_test

import (
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
)

// The copy-on-write snapshot contract: Clone is O(1) — one header,
// sharing the arena, record and abundance segments — and fully
// isolated from later mutations on either side.
func ExamplePool_Clone() {
	p := pool.New()
	p.Add(dna.MustFromString("ACGTACGT"), 10, pool.Meta{Block: 1})
	snap := p.Clone()
	p.Boost(0, 90) // the parent copies only the abundance segment it touches
	fmt.Println(snap.Abundance(0), p.Abundance(0))
	// Output: 10 100
}

// Zero-copy reading: PackedSeq views the 2-bit arena span in place —
// nothing is unpacked or copied — and the view stays valid for the
// life of the pool and of every snapshot sharing the arena.
func ExamplePool_PackedSeq() {
	p := pool.New()
	p.Add(dna.MustFromString("ACGTACGTACGTACGT"), 1, pool.Meta{})
	v := p.PackedSeq(0)
	fmt.Println(v.Len(), string(v.AppendText(nil)))
	// Output: 16 ACGTACGTACGTACGT
}

// Decoding many species into one reused buffer allocates nothing per
// read — the seqsim sampling hot path.
func ExamplePool_AppendSeq() {
	p := pool.New()
	p.Add(dna.MustFromString("ACGT"), 1, pool.Meta{})
	p.Add(dna.MustFromString("TTGGCC"), 1, pool.Meta{})
	var buf dna.Seq
	for i := 0; i < p.Len(); i++ {
		buf = p.AppendSeq(buf[:0], i)
		fmt.Println(buf.String())
	}
	// Output:
	// ACGT
	// TTGGCC
}

// TopSpecies selects the n most abundant species with a bounded heap
// (ties keep insertion order) instead of sorting the whole pool.
func ExamplePool_TopSpecies() {
	p := pool.New()
	p.Add(dna.MustFromString("AAAA"), 1, pool.Meta{})
	p.Add(dna.MustFromString("CCCC"), 3, pool.Meta{})
	p.Add(dna.MustFromString("GGGG"), 2, pool.Meta{})
	for _, s := range p.TopSpecies(2) {
		fmt.Println(s.Seq.String(), s.Abundance)
	}
	// Output:
	// CCCC 3
	// GGGG 2
}
