package trace

import (
	"errors"
	"testing"

	"dnastore/internal/channel"
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

func noisyCopies(r *rng.Source, orig dna.Seq, n int, rates channel.Rates) []dna.Seq {
	out := make([]dna.Seq, n)
	for i := range out {
		out[i] = channel.Corrupt(r, orig, rates)
	}
	return out
}

func TestErrors(t *testing.T) {
	if _, err := BMA(nil, 10); !errors.Is(err, ErrNoReads) {
		t.Errorf("empty cluster: %v", err)
	}
	if _, err := BMA([]dna.Seq{dna.MustFromString("ACGT")}, 0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := DoubleSided(nil, 10); !errors.Is(err, ErrNoReads) {
		t.Errorf("empty cluster (double): %v", err)
	}
}

func TestCleanReadsReproduceExactly(t *testing.T) {
	r := rng.New(1)
	orig := randomSeq(r, 150)
	reads := noisyCopies(r, orig, 10, channel.Noiseless())
	got, err := BMA(reads, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Error("clean forward BMA mismatch")
	}
	got, err = DoubleSided(reads, 150)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Error("clean double-sided BMA mismatch")
	}
}

func TestSingleRead(t *testing.T) {
	orig := dna.MustFromString("ACGTACGTACGTACGT")
	got, err := BMA([]dna.Seq{orig}, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Error("single clean read not reproduced")
	}
}

func TestReconstructionUnderIlluminaNoise(t *testing.T) {
	r := rng.New(2)
	rates := channel.Illumina()
	const trials = 60
	exact := 0
	for i := 0; i < trials; i++ {
		orig := randomSeq(r, 150)
		reads := noisyCopies(r, orig, 10, rates)
		got, err := DoubleSided(reads, 150)
		if err != nil {
			t.Fatal(err)
		}
		if got.Equal(orig) {
			exact++
		} else if d := dna.CompilePattern(got).Distance(orig); d > 8 {
			t.Errorf("trial %d: reconstruction distance %d too high", i, d)
		}
	}
	// The paper reports 100% accurate reconstruction at modest coverage;
	// at 10x coverage and ~1% error, the vast majority must be exact.
	if exact < trials*80/100 {
		t.Errorf("only %d/%d exact reconstructions", exact, trials)
	}
}

func TestDoubleSidedBeatsForwardAtStrandEnd(t *testing.T) {
	// One-sided BMA accumulates cursor drift toward the end of the
	// strand; the backward pass fixes that region. Measure tail errors.
	r := rng.New(3)
	rates := channel.Rates{Sub: 0.01, Ins: 0.005, Del: 0.02} // deletion-heavy
	const trials = 80
	var fwdTail, dsTail int
	for i := 0; i < trials; i++ {
		orig := randomSeq(r, 150)
		reads := noisyCopies(r, orig, 6, rates)
		f, err := BMA(reads, 150)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DoubleSided(reads, 150)
		if err != nil {
			t.Fatal(err)
		}
		fwdTail += dna.Hamming(f[120:], orig[120:])
		dsTail += dna.Hamming(d[120:], orig[120:])
	}
	if dsTail >= fwdTail {
		t.Errorf("double-sided tail errors %d not below forward %d", dsTail, fwdTail)
	}
}

func TestHigherCoverageImproves(t *testing.T) {
	r := rng.New(4)
	rates := channel.Nanopore() // harsh channel to expose the effect
	errAt := func(coverage int) int {
		total := 0
		for i := 0; i < 40; i++ {
			orig := randomSeq(r, 150)
			reads := noisyCopies(r, orig, coverage, rates)
			got, err := DoubleSided(reads, 150)
			if err != nil {
				t.Fatal(err)
			}
			total += dna.CompilePattern(got).Distance(orig)
		}
		return total
	}
	low := errAt(3)
	high := errAt(30)
	if high >= low {
		t.Errorf("coverage 30 errors (%d) not below coverage 3 (%d)", high, low)
	}
}

func TestLengthPreserved(t *testing.T) {
	r := rng.New(5)
	orig := randomSeq(r, 150)
	reads := noisyCopies(r, orig, 5, channel.Nanopore())
	for _, l := range []int{100, 150, 200} {
		got, err := DoubleSided(reads, l)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != l {
			t.Errorf("requested length %d, got %d", l, len(got))
		}
	}
}

func TestAllReadsExhaustedPads(t *testing.T) {
	reads := []dna.Seq{dna.MustFromString("AC"), dna.MustFromString("AC")}
	got, err := BMA(reads, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("length %d want 6", len(got))
	}
}

func BenchmarkDoubleSided10x150(b *testing.B) {
	r := rng.New(6)
	orig := randomSeq(r, 150)
	reads := noisyCopies(r, orig, 10, channel.Illumina())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DoubleSided(reads, 150); err != nil {
			b.Fatal(err)
		}
	}
}
