package stats

import (
	"math"
	"testing"

	"dnastore/internal/rng"
)

func TestZipfShape(t *testing.T) {
	z, err := NewZipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := z.Draw(r)
		if k < 0 || k >= 100 {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	// Rank 1 should be about 2x rank 2, 10x rank 10.
	r1, r2, r10 := float64(counts[0]), float64(counts[1]), float64(counts[9])
	if math.Abs(r1/r2-2) > 0.3 {
		t.Errorf("rank1/rank2 = %.2f want ~2", r1/r2)
	}
	if math.Abs(r1/r10-10) > 2.5 {
		t.Errorf("rank1/rank10 = %.2f want ~10", r1/r10)
	}
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("s=0 accepted")
	}
}
