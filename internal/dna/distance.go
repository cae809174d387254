package dna

// This file implements Hamming distance for primer-library screening
// (Section 1). Levenshtein (edit) distance — read clustering (Section
// 2.1.2) and the PCR mispriming model (Section 8.1: "the incorrectly
// amplified strands largely had indexes that were very close to the
// indexes of our target block in edit distance ... usually 2 or 3 edit
// distance apart") — is computed by the compiled Pattern kernels of
// bitpar.go.

// Hamming returns the Hamming distance between equal-length sequences.
// It panics if the lengths differ, since a Hamming distance between
// different-length sequences is undefined.
func Hamming(a, b Seq) int {
	if len(a) != len(b) {
		panic("dna: Hamming distance requires equal lengths")
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// HammingAtMost reports whether Hamming(a, b) <= k, short-circuiting as
// soon as the bound is exceeded. Used in the primer-library greedy search
// where most pairs fail the threshold early.
func HammingAtMost(a, b Seq, k int) bool {
	if len(a) != len(b) {
		panic("dna: Hamming distance requires equal lengths")
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
			if d > k {
				return false
			}
		}
	}
	return true
}
