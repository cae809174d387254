// Package codec converts between binary data and DNA bases.
//
// The paper uses unconstrained coding for payloads (Section 2.1.1): a
// direct 2-bits-per-base mapping preceded by seeded randomization, which
// makes long homopolymers improbable and balances GC content on average
// while achieving maximum information density. Error handling is left to
// the outer Reed-Solomon code. The internal addresses use the separate
// constrained scheme implemented in package indextree.
package codec

import (
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// BytesToBases maps binary data to bases at 2 bits per base, big-endian
// within each byte: byte 0b00011011 becomes A C G T.
func BytesToBases(data []byte) dna.Seq {
	out := make(dna.Seq, len(data)*4)
	for i, b := range data {
		out[i*4+0] = dna.Base(b >> 6 & 3)
		out[i*4+1] = dna.Base(b >> 4 & 3)
		out[i*4+2] = dna.Base(b >> 2 & 3)
		out[i*4+3] = dna.Base(b & 3)
	}
	return out
}

// BasesToBytes is the inverse of BytesToBases. The sequence length must
// be a multiple of 4.
func BasesToBytes(seq dna.Seq) ([]byte, error) {
	if len(seq)%4 != 0 {
		return nil, fmt.Errorf("codec: sequence length %d not a multiple of 4", len(seq))
	}
	out := make([]byte, len(seq)/4)
	for i := range out {
		out[i] = byte(seq[i*4])<<6 | byte(seq[i*4+1])<<4 |
			byte(seq[i*4+2])<<2 | byte(seq[i*4+3])
	}
	return out, nil
}

// Randomizer XORs data with a deterministic pseudo-random keystream
// derived from a seed. Randomization is its own inverse, so the same
// Randomizer both whitens data before encoding and recovers it after
// decoding. The paper stores the randomization seed as partition-level
// metadata (Section 4.4).
type Randomizer struct {
	seed uint64
}

// NewRandomizer returns a Randomizer for the given seed.
func NewRandomizer(seed uint64) *Randomizer { return &Randomizer{seed: seed} }

// Apply XORs data with the keystream in place. Applying the same
// Randomizer twice restores the original data.
func (r *Randomizer) Apply(data []byte) {
	src := rng.New(r.seed)
	var word uint64
	var have int
	for i := range data {
		if have == 0 {
			word = src.Uint64()
			have = 8
		}
		data[i] ^= byte(word)
		word >>= 8
		have--
	}
}

// Seed returns the randomizer's seed, for persistence in partition
// metadata.
func (r *Randomizer) Seed() uint64 { return r.seed }

// Derive returns an independent randomizer for the n-th subunit (e.g.
// one per encoding unit and version), so identical data in different
// blocks whitens differently while remaining reconstructible from the
// partition seed alone.
func (r *Randomizer) Derive(n uint64) *Randomizer {
	x := r.seed ^ (n+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return &Randomizer{seed: x}
}
