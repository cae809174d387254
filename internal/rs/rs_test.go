package rs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/bits"
	"testing"

	"dnastore/internal/rng"
)

// codeword returns the codeword of k random data symbols.
func codeword(r *rng.Source) [n]byte {
	var w [n]byte
	for i := range w[:k] {
		w[i] = byte(r.Intn(16))
	}
	Encode(&w)
	return w
}

// positions returns the mask of the given symbol positions.
func positions(ps []int) uint16 {
	var m uint16
	for _, p := range ps {
		m |= 1 << p
	}
	return m
}

// TestField checks the GF(16) tables, one subtest per property.
func TestField(t *testing.T) {
	cases := []struct {
		name  string
		check func(a byte) bool
	}{
		{"ExpLogRoundTrip", func(a byte) bool { return a == 0 || exp[log[a]] == a }},
		{"Inverse", func(a byte) bool { return a == 0 || mul(a, div(1, a)) == 1 && div(a, a) == 1 }},
		{"MulIdentityAndZero", func(a byte) bool {
			return mul(a, 1) == a && mul(1, a) == a && mul(a, 0) == 0 && mul(0, a) == 0
		}},
		{"PrimitivePolynomial", func(a byte) bool { return a == 0 || exp[log[a]+1] == clmulMod(a, 2) }},
		{"FieldAxioms", func(a byte) bool {
			for b := byte(0); b < 16; b++ {
				if p := clmulMod(a, b); mul(a, b) != p || mul(b, a) != p {
					return false
				}
				for c := byte(0); c < 16; c++ {
					if mul(a, b^c) != mul(a, b)^mul(a, c) {
						return false
					}
				}
			}
			return true
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for a := byte(0); a < 16; a++ {
				if !c.check(a) {
					t.Errorf("fails at %d", a)
				}
			}
		})
	}
	t.Run("GeneratorOrder", func(t *testing.T) {
		// α generates the group: its powers hit every non-zero element once.
		seen := map[byte]bool{}
		for i := 0; i < n; i++ {
			seen[exp[i]] = true
			if exp[i+n] != exp[i] {
				t.Fatalf("exp table not doubled at %d", i)
			}
		}
		if len(seen) != n || seen[0] {
			t.Fatalf("α has order %d, want %d", len(seen), n)
		}
	})
}

func TestEncodeShape(t *testing.T) {
	data := [k]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	var w [n]byte
	copy(w[:], data[:])
	Encode(&w)
	if [k]byte(w[:k]) != data {
		t.Fatalf("not systematic: %v", w)
	}
	for i := 0; i < parity; i++ {
		if s := refEval(w, refPow(2, i)); s != 0 {
			t.Fatalf("codeword has no root at α^%d: %d", i, s)
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a data symbol of 16 must panic")
		}
	}()
	w := [n]byte{3: 16}
	Encode(&w)
}

func TestDecodeClean(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		w := codeword(r)
		got := w
		if err := Decode(&got, 0); err != nil || got != w {
			t.Fatalf("clean decode: %v, %v != %v", err, got, w)
		}
	}
}

func TestDecodeCorrectsErrors(t *testing.T) {
	r := rng.New(2)
	// RS(15,11) corrects up to 2 symbol errors.
	for trial := 0; trial < 300; trial++ {
		w := codeword(r)
		got := w
		ps := r.Perm(n)[:1+r.Intn(2)]
		for _, p := range ps {
			got[p] ^= byte(1 + r.Intn(15))
		}
		if err := Decode(&got, 0); err != nil || got != w {
			t.Fatalf("trial %d: errors at %v: %v, %v != %v", trial, ps, err, got, w)
		}
	}
}

func TestDecodeCorrectsErasures(t *testing.T) {
	r := rng.New(3)
	// Up to 4 erasures (n-k) are correctable.
	for trial := 0; trial < 300; trial++ {
		w := codeword(r)
		got := w
		ps := r.Perm(n)[:1+r.Intn(4)]
		for _, p := range ps {
			got[p] = byte(r.Intn(16)) // arbitrary garbage
		}
		if err := Decode(&got, positions(ps)); err != nil || got != w {
			t.Fatalf("trial %d: erasures at %v: %v, %v != %v", trial, ps, err, got, w)
		}
	}
}

func TestDecodeCorrectsMixed(t *testing.T) {
	r := rng.New(4)
	// 2*errors + erasures <= 4: one error with one or two erasures.
	for trial := 0; trial < 200; trial++ {
		w := codeword(r)
		got := w
		perm := r.Perm(n)
		eras := perm[:1+r.Intn(2)]
		for _, p := range eras {
			got[p] = byte(r.Intn(16))
		}
		got[perm[len(eras)]] ^= byte(1 + r.Intn(15))
		if err := Decode(&got, positions(eras)); err != nil || got != w {
			t.Fatalf("trial %d: 1 error + %d erasures: %v", trial, len(eras), err)
		}
	}
}

func TestDecodeDetectsOverload(t *testing.T) {
	r := rng.New(5)
	detected := 0
	for trial := 0; trial < 200; trial++ {
		w := codeword(r)
		recv := w
		// 4 errors: beyond the 2-error capability. The decoder must
		// either refuse the word or land on another codeword within two
		// errors of it.
		for _, p := range r.Perm(n)[:4] {
			recv[p] ^= byte(1 + r.Intn(15))
		}
		got := recv
		if err := Decode(&got, 0); err != nil {
			if got != recv {
				t.Fatalf("trial %d: failed decode changed the word", trial)
			}
			detected++
			continue
		}
		if got == w || syndromes(&got) != ([parity]byte{}) || distance(got, recv, 0) > 2 {
			t.Fatalf("trial %d: decoded %v from %v", trial, got, recv)
		}
	}
	if detected == 0 {
		t.Error("decoder never detected a 4-error overload in 200 trials")
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	var w [n]byte
	if err := Decode(&w, 0b11111); !errors.Is(err, ErrTooManyErrors) {
		t.Errorf("5 erasures of a clean word: got %v want ErrTooManyErrors", err)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	bad := [n]byte{0: 200}
	if err := Decode(&bad, 0); err == nil || errors.Is(err, ErrTooManyErrors) {
		t.Errorf("out-of-field symbol: %v", err)
	}
	for _, mask := range []uint16{1 << 15, 0x8001, 0xffff} {
		var w [n]byte
		if err := Decode(&w, mask); err == nil || errors.Is(err, ErrTooManyErrors) {
			t.Errorf("erasure mask %#x: %v", mask, err)
		}
	}
}

func TestExhaustiveSingleErrorsGF16(t *testing.T) {
	// Every single-symbol error in every position, for several codewords.
	r := rng.New(8)
	for trial := 0; trial < 5; trial++ {
		w := codeword(r)
		for pos := 0; pos < n; pos++ {
			for e := byte(1); e < 16; e++ {
				got := w
				got[pos] ^= e
				if err := Decode(&got, 0); err != nil || got != w {
					t.Fatalf("pos %d err %d: %v", pos, e, err)
				}
			}
		}
	}
}

// TestDecodeMatchesBruteForce runs Decode against nearest, an exhaustive
// bounded-distance decoder, on seeded words with 0-4 erasures and 0-3
// symbol errors, beyond the decoding radius included: Decode must
// succeed exactly when nearest finds a codeword, return that codeword,
// and leave a word it refuses unchanged.
func TestDecodeMatchesBruteForce(t *testing.T) {
	r := rng.New(9)
	words, decoded, elsewhere := 2000, 0, 0
	if testing.Short() {
		words = 300
	}
	for trial := 0; trial < words; trial++ {
		w := codeword(r)
		recv := w
		perm := r.Perm(n)
		ne, nerr := r.Intn(5), r.Intn(4)
		for _, p := range perm[:ne] {
			if r.Bool() {
				recv[p] = byte(r.Intn(16))
			} else {
				recv[p] = 0
			}
		}
		for _, p := range perm[ne : ne+nerr] {
			recv[p] ^= byte(1 + r.Intn(15))
		}
		erased := positions(perm[:ne])
		want, ok := nearest(recv, erased)
		got := recv
		err := Decode(&got, erased)
		switch {
		case ok && (err != nil || got != want):
			t.Fatalf("trial %d: %d erasures, %d errors: Decode %v, %v; reference %v", trial, ne, nerr, err, got, want)
		case !ok && !errors.Is(err, ErrTooManyErrors):
			t.Fatalf("trial %d: %d erasures, %d errors: Decode %v, %v; reference finds no codeword", trial, ne, nerr, err, got)
		case !ok && got != recv:
			t.Fatalf("trial %d: refused decode changed the word", trial)
		}
		if ok {
			decoded++
			if want != w {
				elsewhere++
			}
		}
	}
	if decoded == words || elsewhere == 0 {
		t.Fatalf("%d of %d words decode, %d to another codeword: the corpus does not reach past the radius",
			decoded, words, elsewhere)
	}
}

// TestDecodeCorpusDigest pins the parity and decode outcome of 50,000
// seeded words with 0-5 erasures and 0-4 symbol errors. The digest was
// recorded with the generic (field, n, k) decoder this package replaced;
// 27,000 of the words decode and 23,000 are refused.
func TestDecodeCorpusDigest(t *testing.T) {
	const want = "6cba032d8d6719d27bc414dc973d855838d4afc0b959aaad2d83097c1ba88178"
	r := rng.New(35)
	h := sha256.New()
	ok := 0
	for i := 0; i < 50000; i++ {
		var w [n]byte
		for j := range w[:k] {
			w[j] = byte(r.Intn(16))
		}
		ne, nerr := r.Intn(6), r.Intn(5)
		perm := r.Perm(n)
		Encode(&w)
		h.Write(w[:])
		for _, p := range perm[:ne] {
			w[p] = byte(r.Intn(16))
		}
		for _, p := range perm[ne : ne+nerr] {
			w[p] ^= byte(1 + r.Intn(15))
		}
		if err := Decode(&w, positions(perm[:ne])); err != nil {
			h.Write([]byte{0xff})
			continue
		}
		ok++
		h.Write(w[:k])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want || ok != 27000 {
		t.Errorf("corpus: %d decoded, digest %s; want 27000, %s", ok, got, want)
	}
}

func TestAllocs(t *testing.T) {
	r := rng.New(10)
	clean := codeword(r)
	erased, errored := clean, clean
	erased[2], erased[9], erased[14] = 0, 0, 0
	errored[4] ^= 7
	errored[12] ^= 1
	for _, c := range []struct {
		name string
		word [n]byte
		mask uint16
	}{
		{"clean", clean, 0},
		{"erased", erased, 1<<2 | 1<<9 | 1<<14},
		{"errored", errored, 0},
		{"mixed", errored, 1 << 12},
	} {
		if a := testing.AllocsPerRun(100, func() {
			w := c.word
			if err := Decode(&w, c.mask); err != nil || w != clean {
				t.Fatalf("%s: %v", c.name, err)
			}
		}); a != 0 {
			t.Errorf("Decode of a %s word: %v allocations, want 0", c.name, a)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		w := clean
		Encode(&w)
	}); a != 0 {
		t.Errorf("Encode: %v allocations, want 0", a)
	}
}

// --- brute-force reference ----------------------------------------------

// clmulMod multiplies two GF(16) elements bit by bit, reducing by
// x^4 + x + 1, independently of the package's tables.
func clmulMod(a, b byte) byte {
	var p byte
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		a <<= 1
		if a&0x10 != 0 {
			a ^= 0x13
		}
	}
	return p
}

func refPow(a byte, e int) byte {
	p := byte(1)
	for ; e > 0; e-- {
		p = clmulMod(p, a)
	}
	return p
}

// refEval evaluates the word's polynomial (symbol 0 highest degree) at x.
func refEval(w [n]byte, x byte) byte {
	var y byte
	for _, v := range w {
		y = clmulMod(y, x) ^ v
	}
	return y
}

// refMul is clmulMod as a table, and refRoot[i][p] = α^(i·(14-p)) is
// what a unit at symbol p adds to the word's value at α^i.
var refMul, refRoot = func() (m [16][16]byte, r [parity][n]byte) {
	for a := range m {
		for b := range m[a] {
			m[a][b] = clmulMod(byte(a), byte(b))
		}
	}
	for i := range r {
		for p := range r[i] {
			r[i][p] = refPow(2, i*(n-1-p))
		}
	}
	return m, r
}()

// distance counts the symbols outside the erasure mask where a and b differ.
func distance(a, b [n]byte, erased uint16) int {
	d := 0
	for i := range a {
		if erased>>i&1 == 0 && a[i] != b[i] {
			d++
		}
	}
	return d
}

// nearest is an exhaustive bounded-distance decoder. For every set of
// ν <= (4-|E|)/2 error positions outside the erasure set E, smallest
// first, it tries every value of those positions and of E's, and
// returns the first codeword it meets. The code's distance of 5 makes
// any codeword within that radius unique.
func nearest(recv [n]byte, erased uint16) ([n]byte, bool) {
	ne := bits.OnesCount16(erased)
	for nu := 0; 2*nu+ne <= parity; nu++ {
		for errs := uint16(0); errs < 1<<n; errs++ {
			if errs&erased == 0 && bits.OnesCount16(errs) == nu {
				if w, ok := fill(recv, erased|errs); ok {
					return w, true
				}
			}
		}
	}
	return recv, false
}

// fill tries every value of the symbols in mask, keeping recv's other
// symbols, and returns the first codeword.
func fill(recv [n]byte, mask uint16) ([n]byte, bool) {
	var pos []int
	for i := 0; i < n; i++ {
		if mask>>i&1 != 0 {
			recv[i] = 0
			pos = append(pos, i)
		}
	}
	// A codeword has the roots α^0..α^3; track how the assigned values
	// move each of the four evaluations.
	var base [parity]byte
	for i := range base {
		base[i] = refEval(recv, refPow(2, i))
	}
	for v := 0; v < 1<<(4*len(pos)); v++ {
		s := base
		for j, p := range pos {
			row := &refMul[v>>(4*j)&15]
			for i := range s {
				s[i] ^= row[refRoot[i][p]]
			}
		}
		if s == ([parity]byte{}) {
			for j, p := range pos {
				recv[p] = byte(v >> (4 * j) & 15)
			}
			return recv, true
		}
	}
	return recv, false
}

func BenchmarkEncodeRS15_11(b *testing.B) {
	w := [n]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(&w)
	}
}

func BenchmarkDecodeTwoErrorsRS15_11(b *testing.B) {
	w := [n]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	Encode(&w)
	w[2] ^= 5
	w[9] ^= 9
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := w
		if err := Decode(&got, 0); err != nil {
			b.Fatal(err)
		}
	}
}
