// Package rs implements the paper's outer code, the systematic
// Reed-Solomon code RS(15,11) over GF(16), with an errors-and-erasures
// decoder that works in place on fixed-size words.
//
// The paper groups molecules into a matrix whose rows are RS codewords
// (Sections 2.1.3 and 6.2): with "4-bit symbols ... a codeword has
// 2^4-1 = 15 symbols", 11 data and 4 parity, so an encoding unit spans
// 15 molecules (11 data + 4 ECC). Whole-molecule losses become symbol
// erasures in every row; within-molecule corruption becomes symbol
// errors. Decode is a bounded-distance decoder: it returns the codeword
// within 2*errors + erasures <= 4 of the received word when there is
// one (there is at most one, since the code's distance is 5) and
// ErrTooManyErrors otherwise.
//
// The field is GF(2^4) with primitive polynomial x^4 + x + 1, and the
// generator polynomial has the roots α^0..α^3. Symbol i of a word is the
// coefficient of x^(14-i), so the 11 data symbols come first. Neither
// Encode nor Decode allocates.
package rs

import (
	"errors"
	"fmt"
	"math/bits"
)

const (
	n      = 15    // codeword length in symbols
	k      = 11    // data symbols per codeword
	parity = n - k // parity symbols, the decoding budget
)

// ErrTooManyErrors is returned when the received word is beyond the
// code's correction capability.
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

var (
	// exp[i] = α^i, stored twice so a sum of two logs needs no
	// reduction; log[x] is the i with α^i = x (log[0] is unused).
	exp [2 * n]byte
	log [16]byte
	// gen is the generator polynomial (x + α^0)(x + α^1)(x + α^2)(x + α^3),
	// ascending degree.
	gen = [parity + 1]byte{1}
)

func init() {
	x := byte(1)
	for i := 0; i < n; i++ {
		exp[i], exp[i+n] = x, x
		log[x] = byte(i)
		x <<= 1
		if x&0x10 != 0 {
			x ^= 0x13 // α^4 = α + 1
		}
	}
	for i := 0; i < parity; i++ {
		for j := i + 1; j > 0; j-- {
			gen[j] = gen[j-1] ^ mul(gen[j], exp[i])
		}
		gen[0] = mul(gen[0], exp[i])
	}
}

func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return exp[int(log[a])+int(log[b])]
}

// div returns a/b for b != 0.
func div(a, b byte) byte {
	if a == 0 {
		return 0
	}
	return exp[int(log[a])+n-int(log[b])]
}

// eval evaluates the ascending-degree polynomial p at x.
func eval(p []byte, x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = mul(y, x) ^ p[i]
	}
	return y
}

// Encode fills word's 4 parity symbols from its 11 data symbols: the
// remainder of x^4·data(x) divided by the generator polynomial. It
// panics if a data symbol is not a GF(16) element.
func Encode(word *[n]byte) {
	var rem [parity]byte // ascending degree
	for _, d := range word[:k] {
		if d > 15 {
			panic(fmt.Sprintf("rs: data symbol %d is not a GF(16) element", d))
		}
		f := d ^ rem[parity-1]
		copy(rem[1:], rem[:parity-1])
		rem[0] = 0
		for j := range rem {
			rem[j] ^= mul(f, gen[j])
		}
	}
	for j, r := range rem {
		word[n-1-j] = r
	}
}

// syndromes evaluates the word's polynomial at α^0..α^3; all four are
// zero exactly when the word is a codeword.
func syndromes(word *[n]byte) (s [parity]byte) {
	for i := range s {
		for _, v := range word {
			s[i] = mul(s[i], exp[i]) ^ v
		}
	}
	return s
}

// mulSyndromes returns S(x)·p(x) mod x^4 for the syndrome polynomial S.
func mulSyndromes(syn [parity]byte, p *[parity + 1]byte) (out [parity]byte) {
	for i := range out {
		for j := 0; j <= i; j++ {
			out[i] ^= mul(syn[i-j], p[j])
		}
	}
	return out
}

// Decode corrects word in place. Bit i of erased marks symbol i as a
// known-bad position (an erasure), whatever its value. Decode returns
// ErrTooManyErrors, leaving word unchanged, when no codeword lies within
// 2*errors + erasures <= 4 of it, and another error for a mask bit past
// position 14 or a symbol that is not a GF(16) element.
func Decode(word *[n]byte, erased uint16) error {
	if erased>>n != 0 {
		return fmt.Errorf("rs: erasure mask %#04x names a position past %d", erased, n-1)
	}
	for i, v := range word {
		if v > 15 {
			return fmt.Errorf("rs: symbol %d at position %d is not a GF(16) element", v, i)
		}
	}
	ne := bits.OnesCount16(erased)
	if ne > parity {
		return ErrTooManyErrors
	}
	syn := syndromes(word)
	if syn == ([parity]byte{}) {
		return nil
	}

	// Erasure locator: the product of (1 + α^p x) over the erased
	// symbols' degrees p.
	loc := [parity + 1]byte{1}
	for i := 0; i < n; i++ {
		if erased>>i&1 != 0 {
			a := exp[n-1-i]
			for j := parity; j > 0; j-- {
				loc[j] ^= mul(loc[j-1], a)
			}
		}
	}
	// The Forney syndromes, S·Λe mod x^4 from index ne upward, fold the
	// erasures out, so Berlekamp-Massey looks only for the unknown error
	// positions (Blahut's errors-and-erasures construction).
	fs := mulSyndromes(syn, &loc)
	errLoc, deg := berlekampMassey(fs[ne:])
	if deg > (parity-ne)/2 {
		return ErrTooManyErrors
	}

	// The combined locator covers erasures and errors; its degree is at
	// most ne + (4-ne)/2 <= 4.
	var all [parity + 1]byte
	for i, a := range loc[:ne+1] {
		for j, b := range errLoc[:deg+1] {
			all[i+j] ^= mul(a, b)
		}
	}
	deg += ne
	// Forney: the error evaluator is Ω = S·Λ mod x^4, and the magnitude
	// at degree p is α^p·Ω(α^-p)/Λ'(α^-p). In characteristic 2 the
	// formal derivative keeps only odd terms: Λ'(x) = Λ1 + Λ3·x^2.
	omega := mulSyndromes(syn, &all)
	fixed := *word
	for p := 0; p < n; p++ { // Chien search over every symbol degree
		xInv := exp[n-p]
		if eval(all[:deg+1], xInv) != 0 {
			continue
		}
		d := all[1] ^ mul(all[3], mul(xInv, xInv))
		if d == 0 {
			return ErrTooManyErrors
		}
		fixed[n-1-p] ^= mul(exp[p], div(eval(omega[:], xInv), d))
	}
	// The corrected word differs from the received one only at erasures
	// and at most (4-ne)/2 other symbols, so if it is a codeword it is
	// the unique one within the decoding radius; whatever else a
	// locator without enough distinct roots leaves is refused here.
	if syndromes(&fixed) != ([parity]byte{}) {
		return ErrTooManyErrors
	}
	*word = fixed
	return nil
}

// berlekampMassey returns the shortest error locator that generates the
// syndrome sequence s (at most 4 long) and its degree.
func berlekampMassey(s []byte) (c [parity + 1]byte, deg int) {
	prev := [parity + 1]byte{1}
	c[0] = 1
	l, m, b := 0, 1, byte(1)
	for i := range s {
		d := s[i]
		for j := 1; j <= l; j++ {
			d ^= mul(c[j], s[i-j])
		}
		if d == 0 {
			m++
			continue
		}
		t := c
		f := div(d, b)
		// c -= (d/b)·x^m·prev; its degree never passes 4.
		for j := 0; j+m <= parity; j++ {
			c[j+m] ^= mul(f, prev[j])
		}
		if 2*l <= i {
			l = i + 1 - l
			prev, b, m = t, d, 1
		} else {
			m++
		}
	}
	deg = parity
	for deg > 0 && c[deg] == 0 {
		deg--
	}
	return c, deg
}
