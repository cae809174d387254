package channel

import (
	"math"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func randomSeq(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

func TestNoiselessIsIdentity(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 50; i++ {
		s := randomSeq(r, 150)
		got := Corrupt(r, s, Noiseless())
		if !got.Equal(s) {
			t.Fatal("noiseless channel modified the sequence")
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Illumina().Validate(); err != nil {
		t.Errorf("Illumina rates invalid: %v", err)
	}
	if err := Nanopore().Validate(); err != nil {
		t.Errorf("Nanopore rates invalid: %v", err)
	}
	if err := (Rates{Sub: -0.1}).Validate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Rates{Sub: 0.5, Del: 0.5}).Validate(); err == nil {
		t.Error("total rate 1.0 accepted")
	}
}

func TestErrorRatesMatchConfiguration(t *testing.T) {
	// Measure realized edit distance per base and compare to configured
	// total rate.
	r := rng.New(2)
	rates := Rates{Sub: 0.01, Ins: 0.005, Del: 0.015}
	const trials = 400
	const length = 150
	totalDist := 0
	for i := 0; i < trials; i++ {
		s := randomSeq(r, length)
		c := Corrupt(r, s, rates)
		totalDist += dna.CompilePattern(s).Distance(c)
	}
	perBase := float64(totalDist) / (trials * length)
	want := rates.Total()
	// Alignment can occasionally explain two errors as one, so the
	// realized distance may sit slightly below the injected rate.
	if perBase < want*0.7 || perBase > want*1.2 {
		t.Errorf("realized error rate %.4f, configured %.4f", perBase, want)
	}
}

func TestDeletionsShortenInsertionsLengthen(t *testing.T) {
	r := rng.New(3)
	const length = 2000
	s := randomSeq(r, length)
	del := Corrupt(r, s, Rates{Del: 0.1})
	if len(del) >= length {
		t.Errorf("deletion-only channel did not shorten: %d", len(del))
	}
	ins := Corrupt(r, s, Rates{Ins: 0.1})
	if len(ins) <= length {
		t.Errorf("insertion-only channel did not lengthen: %d", len(ins))
	}
	sub := Corrupt(r, s, Rates{Sub: 0.1})
	if len(sub) != length {
		t.Errorf("substitution-only channel changed length: %d", len(sub))
	}
	if hd := dna.Hamming(s, sub); hd < length/20 || hd > length/5 {
		t.Errorf("substitution count %d implausible for 10%%", hd)
	}
}

func TestSubstitutionNeverYieldsSameBase(t *testing.T) {
	r := rng.New(4)
	s := make(dna.Seq, 5000)
	for i := range s {
		s[i] = dna.A
	}
	c := Corrupt(r, s, Rates{Sub: 1.0 - 1e-9})
	same := 0
	for _, b := range c {
		if b == dna.A {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d substitutions produced the original base", same)
	}
}

func TestCorruptDoesNotMutateInput(t *testing.T) {
	r := rng.New(5)
	s := randomSeq(r, 100)
	orig := s.Clone()
	Corrupt(r, s, Rates{Sub: 0.3, Ins: 0.2, Del: 0.3})
	if !s.Equal(orig) {
		t.Error("input mutated")
	}
}

func TestMeanErrorCountPoissonLike(t *testing.T) {
	r := rng.New(6)
	rates := Illumina()
	const trials = 2000
	var lens []int
	for i := 0; i < trials; i++ {
		s := randomSeq(r, 150)
		lens = append(lens, len(Corrupt(r, s, rates)))
	}
	mean := 0.0
	for _, l := range lens {
		mean += float64(l)
	}
	mean /= trials
	want := 150 * (1 - rates.Del + rates.Ins)
	if math.Abs(mean-want) > 0.5 {
		t.Errorf("mean read length %.2f want %.2f", mean, want)
	}
}

// TestAppendCorruptMatchesCorrupt pins the append form to Corrupt: the
// same bases after any prefix already in dst, the prefix untouched, and
// the source left in the same state, at every rate mix including none.
// A buffer with room takes a read without allocating.
func TestAppendCorruptMatchesCorrupt(t *testing.T) {
	for _, rates := range []Rates{
		Illumina(), Nanopore(), Noiseless(),
		{Sub: 0.05}, {Ins: 0.05}, {Del: 0.05}, {Sub: 0.2, Ins: 0.2, Del: 0.2},
	} {
		seqs := rng.New(3)
		want, got := rng.New(11), rng.New(11)
		var buf dna.Seq
		for i := 0; i < 300; i++ {
			seq := randomSeq(seqs, 1+seqs.Intn(200))
			ref := Corrupt(want, seq, rates)
			prefix := randomSeq(seqs, seqs.Intn(3))
			buf = AppendCorrupt(append(buf[:0], prefix...), got, seq, rates)
			if !buf[:len(prefix)].Equal(prefix) || !buf[len(prefix):].Equal(ref) {
				t.Fatalf("%+v read %d: append form %v, want %v after %v", rates, i, buf, ref, prefix)
			}
			if *got != *want {
				t.Fatalf("%+v read %d: sources diverged", rates, i)
			}
		}
		seq := randomSeq(seqs, 150)
		buf = make(dna.Seq, 0, 400)
		if n := testing.AllocsPerRun(50, func() { buf = AppendCorrupt(buf[:0], got, seq, rates) }); n != 0 {
			t.Errorf("%+v: %.1f allocations per read into a roomy buffer, want 0", rates, n)
		}
	}
}
