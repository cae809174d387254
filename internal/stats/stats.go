// Package stats provides the Zipf workload generator for the
// elongated-primer cache study (Section 7.7.4: "In all storage systems
// the popularity of objects follows the Zipfian distribution").
package stats

import (
	"fmt"
	"math"
	"sort"

	"dnastore/internal/rng"
)

// Zipf generates ranks with Zipfian popularity: rank r (1-based) is
// drawn with probability proportional to 1/r^S.
type Zipf struct {
	cum []float64
}

// NewZipf builds a Zipf distribution over n items with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 || s <= 0 {
		return nil, fmt.Errorf("stats: invalid Zipf(n=%d, s=%v)", n, s)
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum}, nil
}

// Draw returns a 0-based item index with Zipfian popularity (index 0 is
// the most popular).
func (z *Zipf) Draw(r *rng.Source) int {
	x := r.Float64()
	return sort.SearchFloat64s(z.cum, x)
}
