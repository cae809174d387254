// Package rs implements systematic Reed-Solomon codes over GF(16) and
// GF(256) with a Berlekamp-Massey error-and-erasure decoder.
//
// The paper's outer code (Sections 2.1.3 and 6.2) groups molecules into a
// matrix whose rows are RS codewords: with 4-bit symbols a codeword has 15
// symbols, 11 data and 4 parity, so an encoding unit spans 15 molecules
// (11 data + 4 ECC). Whole-molecule losses become symbol erasures in every
// row; within-molecule corruption becomes symbol errors. The decoder
// corrects any combination with 2*errors + erasures <= n-k.
package rs

import (
	"errors"
	"fmt"

	"dnastore/internal/gf"
)

// ErrTooManyErrors is returned when the received word is beyond the
// code's correction capability.
var ErrTooManyErrors = errors.New("rs: too many errors to correct")

// Code is a systematic Reed-Solomon code with parameters (n, k).
type Code struct {
	field *gf.Field
	n     int    // codeword length, <= field.Size()-1
	k     int    // data symbols per codeword
	gen   []byte // generator polynomial, ascending degree, monic
}

// New constructs an (n, k) Reed-Solomon code over the given field.
func New(field *gf.Field, n, k int) (*Code, error) {
	if n <= 0 || k <= 0 || k >= n {
		return nil, fmt.Errorf("rs: invalid parameters n=%d k=%d", n, k)
	}
	if n > field.Size()-1 {
		return nil, fmt.Errorf("rs: n=%d exceeds field limit %d", n, field.Size()-1)
	}
	c := &Code{field: field, n: n, k: k}
	// Generator polynomial g(x) = prod_{i=0}^{n-k-1} (x - alpha^i).
	g := []byte{1}
	for i := 0; i < n-k; i++ {
		g = field.PolyMul(g, []byte{field.Exp(i), 1})
	}
	c.gen = g
	return c, nil
}

// MustNew is New that panics on error, for fixed known-good parameters.
func MustNew(field *gf.Field, n, k int) *Code {
	c, err := New(field, n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the number of data symbols per codeword.
func (c *Code) K() int { return c.k }

// Encode produces a systematic codeword: the k data symbols followed by
// n-k parity symbols. data must have exactly k symbols, each valid for
// the field.
func (c *Code) Encode(data []byte) ([]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: data length %d, want %d", len(data), c.k)
	}
	for _, v := range data {
		if err := c.field.Validate(v); err != nil {
			return nil, err
		}
	}
	// Compute parity as the remainder of x^(n-k) * data(x) mod g(x).
	// Work in descending-degree order for the long division.
	nparity := c.n - c.k
	rem := make([]byte, nparity)
	for i := c.k - 1; i >= 0; i-- {
		// Feed data symbols high-degree first: codeword layout is
		// data[0..k-1] then parity, with data[0] the highest-degree term.
		factor := data[c.k-1-i] ^ rem[nparity-1]
		copy(rem[1:], rem[:nparity-1])
		rem[0] = 0
		if factor != 0 {
			for j := 0; j < nparity; j++ {
				rem[j] ^= c.field.Mul(factor, c.gen[j])
			}
		}
	}
	out := make([]byte, c.n)
	copy(out, data)
	for j := 0; j < nparity; j++ {
		// rem is ascending degree; parity occupies the low-degree end of
		// the codeword polynomial, i.e. the tail of the slice reversed.
		out[c.n-1-j] = rem[j]
	}
	return out, nil
}

// codewordPoly converts a codeword slice (data-first layout) into a
// polynomial in ascending-degree coefficient order.
func (c *Code) codewordPoly(word []byte) []byte {
	p := make([]byte, c.n)
	for i, v := range word {
		p[c.n-1-i] = v
	}
	return p
}

func (c *Code) polyToCodeword(p []byte) []byte {
	w := make([]byte, c.n)
	for i := 0; i < c.n; i++ {
		w[i] = p[c.n-1-i]
	}
	return w
}

// syndromes returns the n-k syndromes of the received polynomial, and
// whether all of them are zero.
func (c *Code) syndromes(p []byte) ([]byte, bool) {
	nparity := c.n - c.k
	syn := make([]byte, nparity)
	clean := true
	for i := 0; i < nparity; i++ {
		s := c.field.PolyEval(p, c.field.Exp(i))
		syn[i] = s
		if s != 0 {
			clean = false
		}
	}
	return syn, clean
}

// Decode corrects a received codeword in place and returns the k data
// symbols. erasures lists known-bad positions in codeword layout
// (0 = first data symbol). It returns ErrTooManyErrors when correction
// is impossible or inconsistent.
func (c *Code) Decode(received []byte, erasures []int) ([]byte, error) {
	if len(received) != c.n {
		return nil, fmt.Errorf("rs: received length %d, want %d", len(received), c.n)
	}
	for _, v := range received {
		if err := c.field.Validate(v); err != nil {
			return nil, err
		}
	}
	// Deduplicate erasure positions; duplicates would square the locator
	// roots and break the Chien search.
	if len(erasures) > 1 {
		seen := make(map[int]bool, len(erasures))
		uniq := erasures[:0:0]
		for _, pos := range erasures {
			if !seen[pos] {
				seen[pos] = true
				uniq = append(uniq, pos)
			}
		}
		erasures = uniq
	}
	nparity := c.n - c.k
	if len(erasures) > nparity {
		return nil, ErrTooManyErrors
	}
	for _, pos := range erasures {
		if pos < 0 || pos >= c.n {
			return nil, fmt.Errorf("rs: erasure position %d out of range", pos)
		}
	}
	p := c.codewordPoly(received)
	syn, clean := c.syndromes(p)
	if clean {
		return append([]byte(nil), received[:c.k]...), nil
	}

	// Erasure locator polynomial: prod (1 - x*alpha^(pos_poly)).
	erasureLoc := []byte{1}
	for _, pos := range erasures {
		polyPos := c.n - 1 - pos // degree of that symbol in the polynomial
		erasureLoc = c.field.PolyMul(erasureLoc, []byte{1, c.field.Exp(polyPos)})
	}

	// Modified (Forney) syndromes fold the erasure information in, so
	// Berlekamp-Massey only needs to find the unknown error positions.
	// The usable Forney syndromes are the modified syndromes from index
	// len(erasures) upward (Blahut's errors-and-erasures construction).
	modSyn := c.modifiedSyndromes(syn, erasureLoc)
	forneySyn := modSyn[len(erasures):]

	// Berlekamp-Massey on the Forney syndromes.
	errLoc, err := c.berlekampMassey(forneySyn, (nparity-len(erasures))/2)
	if err != nil {
		return nil, err
	}

	// Combined locator covers both erasures and errors.
	loc := c.field.PolyMul(erasureLoc, errLoc)

	// Chien search: find roots of the locator.
	positions, err := c.chienSearch(loc)
	if err != nil {
		return nil, err
	}

	// Forney algorithm: error magnitudes.
	if err := c.forney(p, syn, loc, positions); err != nil {
		return nil, err
	}

	// Verify: recompute syndromes after correction.
	if _, ok := c.syndromes(p); !ok {
		return nil, ErrTooManyErrors
	}
	word := c.polyToCodeword(p)
	return word[:c.k], nil
}

// modifiedSyndromes computes the Forney syndromes that remove the
// contribution of known erasures.
func (c *Code) modifiedSyndromes(syn, erasureLoc []byte) []byte {
	// T(x) = [S(x) * Lambda_e(x)] mod x^(n-k)
	prod := c.field.PolyMul(syn, erasureLoc)
	nparity := c.n - c.k
	if len(prod) > nparity {
		prod = prod[:nparity]
	}
	return prod
}

// berlekampMassey finds the error locator polynomial from the given
// syndrome sequence. budget is the maximum number of correctable errors;
// a locator of higher degree is reported as ErrTooManyErrors.
func (c *Code) berlekampMassey(syn []byte, budget int) ([]byte, error) {
	locator := []byte{1}
	prev := []byte{1}
	var l int // current number of assumed errors
	var m = 1
	var b byte = 1
	for i := 0; i < len(syn); i++ {
		// Compute discrepancy.
		var delta byte = syn[i]
		for j := 1; j <= l && j < len(locator); j++ {
			delta ^= c.field.Mul(locator[j], syn[i-j])
		}
		if delta == 0 {
			m++
			continue
		}
		if 2*l <= i {
			t := append([]byte(nil), locator...)
			// locator -= (delta/b) * x^m * prev
			coef := c.field.Div(delta, b)
			shifted := make([]byte, m+len(prev))
			for j, v := range prev {
				shifted[m+j] = c.field.Mul(coef, v)
			}
			locator = c.field.PolyAdd(locator, shifted)
			l = i + 1 - l
			prev = t
			b = delta
			m = 1
		} else {
			coef := c.field.Div(delta, b)
			shifted := make([]byte, m+len(prev))
			for j, v := range prev {
				shifted[m+j] = c.field.Mul(coef, v)
			}
			locator = c.field.PolyAdd(locator, shifted)
			m++
		}
	}
	// Trim trailing zeros.
	deg := len(locator) - 1
	for deg > 0 && locator[deg] == 0 {
		deg--
	}
	locator = locator[:deg+1]
	if deg > budget {
		return nil, ErrTooManyErrors
	}
	return locator, nil
}

// chienSearch returns the polynomial positions (degrees) where the
// locator has roots, i.e. the corrupted symbol degrees.
func (c *Code) chienSearch(loc []byte) ([]int, error) {
	deg := len(loc) - 1
	var positions []int
	for i := 0; i < c.n; i++ {
		// Position i (polynomial degree i) is in error if
		// loc(alpha^-i) == 0.
		x := c.field.Exp(-i)
		if c.field.PolyEval(loc, x) == 0 {
			positions = append(positions, i)
		}
	}
	if len(positions) != deg {
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// forney computes error magnitudes and corrects p in place.
func (c *Code) forney(p, syn, loc []byte, positions []int) error {
	// Error evaluator Omega(x) = [S(x) * Lambda(x)] mod x^(n-k).
	nparity := c.n - c.k
	omega := c.field.PolyMul(syn, loc)
	if len(omega) > nparity {
		omega = omega[:nparity]
	}
	// Formal derivative of the locator: coefficient j of the derivative is
	// (j+1)*loc[j+1], and in characteristic 2 only odd j+1 survive.
	deriv := make([]byte, len(loc)-1)
	for j := 0; j < len(deriv); j++ {
		if (j+1)%2 == 1 {
			deriv[j] = loc[j+1]
		}
	}
	for _, pos := range positions {
		xInv := c.field.Exp(-pos)
		denom := c.field.PolyEval(deriv, xInv)
		if denom == 0 {
			return ErrTooManyErrors
		}
		num := c.field.PolyEval(omega, xInv)
		// Magnitude = x^pos * Omega(x^-1) / Lambda'(x^-1) for the
		// alpha^0-rooted generator convention.
		mag := c.field.Mul(c.field.Exp(pos), c.field.Div(num, denom))
		p[pos] ^= mag
	}
	return nil
}
