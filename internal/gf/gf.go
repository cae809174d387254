// Package gf implements arithmetic over the finite fields GF(16) and
// GF(256) used by the Reed-Solomon outer code.
//
// The paper's wetlab configuration uses 4-bit Reed-Solomon symbols
// (Section 6.2: "we use small 4-bit symbols, which means that a codeword
// has 2^4-1 = 15 symbols"), i.e. GF(16). Larger deployments use 8-bit
// symbols (255-symbol codewords), so both fields are provided behind one
// interface.
package gf

import "fmt"

// Field is a finite field GF(2^m) represented with log/antilog tables.
type Field struct {
	m       uint   // extension degree
	size    int    // 2^m
	poly    int    // primitive polynomial (with the x^m term)
	exp     []byte // exp[i] = alpha^i, doubled for overflow-free products
	log     []int  // log[x] = i such that alpha^i = x; log[0] unused
	nonZero int    // size - 1, the multiplicative group order
}

var (
	// GF16 is GF(2^4) with primitive polynomial x^4 + x + 1 (0b10011).
	GF16 = newField(4, 0x13)
	// GF256 is GF(2^8) with primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d).
	GF256 = newField(8, 0x11d)
)

func newField(m uint, poly int) *Field {
	size := 1 << m
	f := &Field{
		m:       m,
		size:    size,
		poly:    poly,
		exp:     make([]byte, 2*(size-1)),
		log:     make([]int, size),
		nonZero: size - 1,
	}
	x := 1
	for i := 0; i < size-1; i++ {
		f.exp[i] = byte(x)
		f.log[x] = i
		x <<= 1
		if x >= size {
			x ^= poly
		}
	}
	// Duplicate the exp table so products of logs never need a modulo.
	copy(f.exp[size-1:], f.exp[:size-1])
	return f
}

// Size returns the number of field elements (16 or 256).
func (f *Field) Size() int { return f.size }

// SymbolBits returns the number of bits per symbol (4 or 8).
func (f *Field) SymbolBits() uint { return f.m }

// Add returns a+b. In characteristic 2, addition and subtraction are XOR.
func (f *Field) Add(a, b byte) byte { return a ^ b }

// Mul returns the product a*b.
func (f *Field) Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Div returns a/b. It panics on division by zero.
func (f *Field) Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.nonZero-f.log[b]]
}

// Exp returns alpha^i for the field generator alpha, with i reduced
// modulo the group order (negative i allowed).
func (f *Field) Exp(i int) byte {
	i %= f.nonZero
	if i < 0 {
		i += f.nonZero
	}
	return f.exp[i]
}

// Log returns the discrete logarithm of a to base alpha.
// It panics for a == 0, which has no logarithm.
func (f *Field) Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return f.log[a]
}

// Pow returns a^n (n >= 0).
func (f *Field) Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return f.exp[(f.log[a]*n)%f.nonZero]
}

// PolyEval evaluates the polynomial p (coefficients in ascending degree
// order: p[0] + p[1]x + ...) at x using Horner's method.
func (f *Field) PolyEval(p []byte, x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = f.Mul(y, x) ^ p[i]
	}
	return y
}

// PolyMul returns the product of polynomials a and b (ascending degree).
func (f *Field) PolyMul(a, b []byte) []byte {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]byte, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= f.Mul(ai, bj)
		}
	}
	return out
}

// PolyAdd returns a + b, extending the shorter polynomial with zeros.
func (f *Field) PolyAdd(a, b []byte) []byte {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]byte, n)
	copy(out, a)
	for i, v := range b {
		out[i] ^= v
	}
	return out
}

// Validate checks that v is a valid symbol for the field.
func (f *Field) Validate(v byte) error {
	if int(v) >= f.size {
		return fmt.Errorf("gf: symbol %d out of range for GF(%d)", v, f.size)
	}
	return nil
}
