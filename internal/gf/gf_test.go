package gf

import (
	"testing"
	"testing/quick"
)

func fields() []*Field { return []*Field{GF16, GF256} }

func TestFieldAxioms(t *testing.T) {
	for _, f := range fields() {
		n := f.Size()
		// Exhaustive checks are cheap for GF(16); sample for GF(256).
		step := 1
		if n > 16 {
			step = 7
		}
		for a := 0; a < n; a += step {
			for b := 0; b < n; b += step {
				ab := f.Mul(byte(a), byte(b))
				ba := f.Mul(byte(b), byte(a))
				if ab != ba {
					t.Fatalf("GF(%d): mul not commutative at %d,%d", n, a, b)
				}
				if int(ab) >= n {
					t.Fatalf("GF(%d): product out of field", n)
				}
				for c := 0; c < n; c += step * 3 {
					// distributivity: a*(b+c) == a*b + a*c
					l := f.Mul(byte(a), f.Add(byte(b), byte(c)))
					r := f.Add(f.Mul(byte(a), byte(b)), f.Mul(byte(a), byte(c)))
					if l != r {
						t.Fatalf("GF(%d): distributivity fails at %d,%d,%d", n, a, b, c)
					}
				}
			}
		}
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for _, f := range fields() {
		for a := 0; a < f.Size(); a++ {
			if f.Mul(byte(a), 1) != byte(a) {
				t.Fatalf("GF(%d): a*1 != a for %d", f.Size(), a)
			}
			if f.Mul(byte(a), 0) != 0 {
				t.Fatalf("GF(%d): a*0 != 0 for %d", f.Size(), a)
			}
		}
	}
}

func TestInverse(t *testing.T) {
	for _, f := range fields() {
		for a := 1; a < f.Size(); a++ {
			if f.Mul(byte(a), f.Div(1, byte(a))) != 1 {
				t.Fatalf("GF(%d): a * Div(1,a) != 1 for %d", f.Size(), a)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by 0 must panic")
		}
	}()
	GF256.Div(5, 0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for _, f := range fields() {
		for a := 1; a < f.Size(); a++ {
			if f.Exp(f.Log(byte(a))) != byte(a) {
				t.Fatalf("GF(%d): exp(log(%d)) != %d", f.Size(), a, a)
			}
		}
		// Generator has full order: powers hit every non-zero element once.
		seen := make(map[byte]bool)
		for i := 0; i < f.Size()-1; i++ {
			seen[f.Exp(i)] = true
		}
		if len(seen) != f.Size()-1 {
			t.Fatalf("GF(%d): generator order %d, want %d", f.Size(), len(seen), f.Size()-1)
		}
		// Negative exponents wrap.
		if f.Exp(-1) != f.Div(1, f.Exp(1)) {
			t.Fatalf("GF(%d): Exp(-1) != Div(1, alpha)", f.Size())
		}
	}
}

func TestPow(t *testing.T) {
	for _, f := range fields() {
		if f.Pow(0, 0) != 1 {
			t.Error("0^0 should be 1 by convention")
		}
		if f.Pow(0, 3) != 0 {
			t.Error("0^3 should be 0")
		}
		for a := 1; a < f.Size(); a += 3 {
			want := byte(1)
			for n := 0; n < 6; n++ {
				if got := f.Pow(byte(a), n); got != want {
					t.Fatalf("GF(%d): Pow(%d,%d) = %d want %d", f.Size(), a, n, got, want)
				}
				want = f.Mul(want, byte(a))
			}
		}
	}
}

func TestPolyEval(t *testing.T) {
	f := GF16
	// p(x) = 3 + 2x + x^2 over GF(16); p(0)=3, p(1)=3^2^1 = 0b11^0b10^0b01.
	p := []byte{3, 2, 1}
	if got := f.PolyEval(p, 0); got != 3 {
		t.Errorf("p(0) = %d want 3", got)
	}
	want := byte(3) ^ byte(2) ^ byte(1)
	if got := f.PolyEval(p, 1); got != want {
		t.Errorf("p(1) = %d want %d", got, want)
	}
}

func TestPolyMulDegreeAndCommutativity(t *testing.T) {
	f := GF256
	check := func(a, b []byte) bool {
		ab := f.PolyMul(a, b)
		ba := f.PolyMul(b, a)
		if len(ab) != len(ba) {
			return false
		}
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(a, b []byte) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		return check(a, b)
	}, nil); err != nil {
		t.Error(err)
	}
	if f.PolyMul(nil, []byte{1}) != nil {
		t.Error("empty polynomial product should be nil")
	}
}

func TestPolyMulEvalHomomorphism(t *testing.T) {
	// (p*q)(x) == p(x)*q(x) for all x — checks PolyMul against PolyEval.
	f := GF16
	p := []byte{1, 5, 3}
	q := []byte{7, 2}
	pq := f.PolyMul(p, q)
	for x := 0; x < 16; x++ {
		want := f.Mul(f.PolyEval(p, byte(x)), f.PolyEval(q, byte(x)))
		if got := f.PolyEval(pq, byte(x)); got != want {
			t.Fatalf("(pq)(%d) = %d want %d", x, got, want)
		}
	}
}

func TestPolyAddScale(t *testing.T) {
	f := GF16
	a := []byte{1, 2, 3}
	b := []byte{4, 5}
	sum := f.PolyAdd(a, b)
	if len(sum) != 3 || sum[0] != 1^4 || sum[1] != 2^5 || sum[2] != 3 {
		t.Errorf("PolyAdd = %v", sum)
	}
	// Scaling is multiplication by a constant polynomial.
	sc := f.PolyMul(a, []byte{2})
	for i := range a {
		if sc[i] != f.Mul(a[i], 2) {
			t.Errorf("scaled[%d] = %d", i, sc[i])
		}
	}
}

func TestValidate(t *testing.T) {
	if err := GF16.Validate(15); err != nil {
		t.Errorf("15 should be valid in GF16: %v", err)
	}
	if err := GF16.Validate(16); err == nil {
		t.Error("16 should be invalid in GF16")
	}
	if err := GF256.Validate(255); err != nil {
		t.Errorf("255 should be valid in GF256: %v", err)
	}
}

func TestSymbolBits(t *testing.T) {
	if GF16.SymbolBits() != 4 || GF256.SymbolBits() != 8 {
		t.Error("symbol bits wrong")
	}
}

func BenchmarkMulGF256(b *testing.B) {
	f := GF256
	for i := 0; i < b.N; i++ {
		_ = f.Mul(byte(i), byte(i>>8))
	}
}
