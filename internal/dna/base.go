// Package dna provides the primitive types and sequence algorithms used
// throughout the DNA storage system: bases, sequences, GC-content and
// homopolymer analysis, Hamming and Levenshtein distances, reverse
// complements and a simple melting-temperature estimate.
package dna

import "fmt"

// Base is one of the four DNA nucleotides. The numeric values follow the
// alphabetical A, C, G, T order used by the paper's index tree (Section 3.1:
// "Every non-leaf node in this tree has four edges labelled A, C, G, T, in
// that order"), which also makes a Base directly usable as a 2-bit digit.
type Base byte

const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NumBases is the alphabet size.
const NumBases = 4

// Rune returns the character for the base.
func (b Base) Rune() rune {
	switch b {
	case A:
		return 'A'
	case C:
		return 'C'
	case G:
		return 'G'
	case T:
		return 'T'
	}
	return '?'
}

// String implements fmt.Stringer.
func (b Base) String() string { return string(b.Rune()) }

// IsGC reports whether the base is guanine or cytosine. GC-content
// constraints on primers are expressed in terms of this predicate.
func (b Base) IsGC() bool { return b == G || b == C }

// Complement returns the Watson-Crick complement (A<->T, C<->G).
func (b Base) Complement() Base { return 3 - b }

// ParseBase converts a character to a Base.
func ParseBase(r byte) (Base, error) {
	switch r {
	case 'A', 'a':
		return A, nil
	case 'C', 'c':
		return C, nil
	case 'G', 'g':
		return G, nil
	case 'T', 't':
		return T, nil
	}
	return 0, fmt.Errorf("dna: invalid base %q", r)
}

// Seq is a DNA sequence. Sequences are mutable byte slices of Base values;
// use Clone before retaining a Seq that a caller may reuse.
type Seq []Base

// FromString parses a sequence of ACGT characters. It returns an error on
// any other character.
func FromString(s string) (Seq, error) {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		b, err := ParseBase(s[i])
		if err != nil {
			return nil, fmt.Errorf("dna: position %d: %v", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// MustFromString is FromString that panics on error, for tests and
// compile-time-constant sequences.
func MustFromString(s string) Seq {
	seq, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// String renders the sequence as ACGT characters.
func (s Seq) String() string {
	buf := make([]byte, len(s))
	for i, b := range s {
		buf[i] = byte(b.Rune())
	}
	return string(buf)
}

// Clone returns a copy of the sequence.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two sequences are identical.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether s begins with prefix.
func (s Seq) HasPrefix(prefix Seq) bool {
	if len(s) < len(prefix) {
		return false
	}
	return s[:len(prefix)].Equal(prefix)
}

// HasSuffix reports whether s ends with suffix.
func (s Seq) HasSuffix(suffix Seq) bool {
	if len(s) < len(suffix) {
		return false
	}
	return s[len(s)-len(suffix):].Equal(suffix)
}

// Concat returns the concatenation of the given sequences as a new Seq.
func Concat(parts ...Seq) Seq {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make(Seq, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// ReverseComplement returns the reverse complement of s as a new sequence.
// A double-stranded DNA molecule reads as s on one strand and as
// s.ReverseComplement() on the other; PCR reverse primers bind to the
// reverse-complement strand.
func (s Seq) ReverseComplement() Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b.Complement()
	}
	return out
}

// GCCount returns the number of G and C bases in s.
func (s Seq) GCCount() int {
	n := 0
	for _, b := range s {
		if b.IsGC() {
			n++
		}
	}
	return n
}

// GCContent returns the fraction of G and C bases in s, in [0, 1].
// It returns 0 for the empty sequence.
func (s Seq) GCContent() float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s.GCCount()) / float64(len(s))
}

// MaxHomopolymer returns the length of the longest run of identical bases.
// Long homopolymers make sequencing unreliable (Section 2.1.1), so both
// primer design and the sparse index coding bound this quantity.
func (s Seq) MaxHomopolymer() int {
	if len(s) == 0 {
		return 0
	}
	best, run := 1, 1
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 1
		}
	}
	return best
}

// Index returns the first position at which sub occurs in s, or -1.
func (s Seq) Index(sub Seq) int {
	if len(sub) == 0 {
		return 0
	}
	if len(sub) > len(s) {
		return -1
	}
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i : i+len(sub)].Equal(sub) {
			return i
		}
	}
	return -1
}

// MeltingTemp estimates the primer melting temperature in degrees Celsius.
// For primers up to 13 bases it uses the Wallace rule (2*(A+T) + 4*(G+C));
// for longer primers it uses the standard length-corrected formula
// 64.9 + 41*(GC-16.4)/N. This matches the coarse Tm reasoning in the paper
// (elongated 31-base primers melting at 63-64 C, Section 6.5).
func (s Seq) MeltingTemp() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	gc := s.GCCount()
	at := n - gc
	if n <= 13 {
		return float64(2*at + 4*gc)
	}
	return 64.9 + 41.0*(float64(gc)-16.4)/float64(n)
}
