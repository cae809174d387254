package pool

import (
	"math"
	"runtime"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestAddMergesIdenticalSequences(t *testing.T) {
	p := New()
	s := dna.MustFromString("ACGT")
	p.Add(s, 10, Meta{Block: 1, OriginBlock: 1})
	p.Add(s.Clone(), 5, Meta{Block: 2, OriginBlock: 2})
	if p.Len() != 1 {
		t.Fatalf("expected merge, got %d species", p.Len())
	}
	if got := p.Total(); got != 15 {
		t.Errorf("total %v want 15", got)
	}
	// First writer's metadata is retained.
	if p.MetaAt(0).Block != 1 {
		t.Error("metadata overwritten on merge")
	}
}

func TestAddIgnoresNonPositive(t *testing.T) {
	p := New()
	p.Add(dna.MustFromString("ACGT"), 0, Meta{})
	p.Add(dna.MustFromString("ACGT"), -5, Meta{})
	if p.Len() != 0 {
		t.Error("non-positive abundance created species")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var p Pool
	p.Add(dna.MustFromString("AC"), 1, Meta{})
	if p.Len() != 1 {
		t.Error("zero-value pool not usable")
	}
}

func TestScaleAndClone(t *testing.T) {
	p := New()
	p.Add(dna.MustFromString("ACGT"), 10, Meta{})
	p.Add(dna.MustFromString("TGCA"), 20, Meta{})
	c := p.Clone()
	p.Scale(0.5)
	if got := p.Total(); got != 15 {
		t.Errorf("scaled total %v want 15", got)
	}
	if got := c.Total(); got != 30 {
		t.Errorf("clone affected by scale: %v", got)
	}
	p.Scale(-1) // clamps to zero
	if got := p.Total(); got != 0 {
		t.Errorf("negative scale: total %v", got)
	}
}

func TestMixInto(t *testing.T) {
	a := New()
	a.Add(dna.MustFromString("ACGT"), 10, Meta{})
	b := New()
	b.Add(dna.MustFromString("ACGT"), 100, Meta{})
	b.Add(dna.MustFromString("GGCC"), 100, Meta{})
	a.MixInto(b, 0.1)
	if got := a.Total(); math.Abs(got-30) > 1e-9 {
		t.Errorf("mixed total %v want 30", got)
	}
	if a.Len() != 2 {
		t.Errorf("mixed species %d want 2", a.Len())
	}
}

func TestMeasure(t *testing.T) {
	p := New()
	p.Add(dna.MustFromString("ACGT"), 1000, Meta{})
	if got := p.Measure(rng.New(1), 0); got != 1000 {
		t.Errorf("exact measure %v", got)
	}
	r := rng.New(2)
	sum := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		sum += p.Measure(r, 0.05)
	}
	mean := sum / n
	if math.Abs(mean-1000) > 10 {
		t.Errorf("measurement mean %v too biased", mean)
	}
}

func TestAbundanceByBlock(t *testing.T) {
	p := New()
	p.Add(dna.MustFromString("AAAA"), 5, Meta{Partition: "alice", Block: 1, OriginBlock: 1})
	p.Add(dna.MustFromString("CCCC"), 7, Meta{Partition: "alice", Block: 1, OriginBlock: 1})
	p.Add(dna.MustFromString("GGGG"), 3, Meta{Partition: "alice", Block: 2, OriginBlock: 2})
	p.Add(dna.MustFromString("TTTT"), 9, Meta{Partition: "other", Block: 1, OriginBlock: 1})
	got := p.AbundanceByBlock("alice")
	if got[1] != 12 || got[2] != 3 {
		t.Errorf("per-block abundance %v", got)
	}
	if _, ok := got[9]; ok {
		t.Error("phantom block present")
	}
}

func TestTopSpecies(t *testing.T) {
	p := New()
	p.Add(dna.MustFromString("AAAA"), 1, Meta{})
	p.Add(dna.MustFromString("CCCC"), 3, Meta{})
	p.Add(dna.MustFromString("GGGG"), 2, Meta{})
	top := p.TopSpecies(2)
	if len(top) != 2 || top[0].Abundance != 3 || top[1].Abundance != 2 {
		t.Errorf("TopSpecies wrong: %+v", top)
	}
	if got := p.TopSpecies(10); len(got) != 3 {
		t.Errorf("TopSpecies over-count: %d", len(got))
	}
}

func TestSynthesizeSkewWithinTwoFold(t *testing.T) {
	// Figure 9a: synthesis bias keeps strand abundances within ~2x.
	r := rng.New(3)
	orders := make([]SynthesisOrder, 1000)
	base := dna.MustFromString("ACGTACGTACGTACGTACGT")
	for i := range orders {
		seq := base.Clone()
		// make each sequence distinct
		seq[i%20] = dna.Base((int(seq[i%20]) + 1 + i/20%3) % 4)
		seq = append(seq, dna.Base(i%4), dna.Base(i/4%4), dna.Base(i/16%4), dna.Base(i/64%4), dna.Base(i/256%4))
		orders[i] = SynthesisOrder{Seq: seq, Meta: Meta{Block: i}}
	}
	p, err := Synthesize(r, orders, DefaultTwist())
	if err != nil {
		t.Fatal(err)
	}
	min, max := math.Inf(1), 0.0
	for i, n := 0, p.Len(); i < n; i++ {
		a := p.Abundance(i)
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	if ratio := max / min; ratio > 2.5 {
		t.Errorf("synthesis skew max/min = %.2f, should stay within ~2x", ratio)
	}
}

func TestSynthesizeRejectsBadParams(t *testing.T) {
	if _, err := Synthesize(rng.New(1), nil, SynthesisParams{}); err == nil {
		t.Error("zero copies per strand accepted")
	}
}

func TestVendorConcentrationGap(t *testing.T) {
	// Section 6.4.1: the IDT pool was 50000x more concentrated.
	gap := DefaultIDT().CopiesPerStrand / DefaultTwist().CopiesPerStrand
	if gap < 10000 || gap > 100000 {
		t.Errorf("vendor concentration gap %v, want ~50000x", gap)
	}
}

// TestAddAllocsOnExisting pins the packed-key fast path: growing the
// abundance of a known sequence allocates nothing.
func TestAddAllocsOnExisting(t *testing.T) {
	p := New()
	seq := dna.MustFromString("ACGTACGTACGTACGTACGTACGTACGTACG")
	p.Add(seq, 1, Meta{})
	if avg := testing.AllocsPerRun(200, func() { p.Add(seq, 1, Meta{}) }); avg != 0 {
		t.Errorf("Add on existing species allocates %.1f times per call, want 0", avg)
	}
}

// TestMemoryPerSpecies pins the arena layout's footprint at tube scale:
// 2x10^5 random 150-base strands added one by one retain at most 100
// heap bytes per species (packed span, 40-byte record, index slot;
// about 89 measured), and sampling reads into a reused buffer, the way
// seqsim draws them, allocates nothing.
func TestMemoryPerSpecies(t *testing.T) {
	const (
		strands   = 200_000
		strandLen = 150
		maxBytes  = 100
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := New()
	scratch := make(dna.Seq, strandLen)
	r := rng.New(97)
	for i := 0; i < strands; i++ {
		for j := range scratch {
			scratch[j] = dna.Base(r.Intn(4))
		}
		p.Add(scratch, 1, Meta{Block: i, OriginBlock: i})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := p.Len()
	if n != strands {
		t.Fatalf("pool holds %d species, want %d distinct", n, strands)
	}
	perSpecies := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	t.Logf("%d species: %.1f retained heap bytes per species", n, perSpecies)
	if perSpecies > maxBytes {
		t.Errorf("pool retains %.1f heap bytes per species, want <= %d", perSpecies, maxBytes)
	}

	const readsPerRun = 1000
	var buf dna.Seq
	avg := testing.AllocsPerRun(5, func() {
		for i := 0; i < readsPerRun; i++ {
			buf = p.AppendSeq(buf[:0], (i*7919+13)%n)
		}
	}) / readsPerRun
	if avg != 0 {
		t.Errorf("AppendSeq into a reused buffer allocates %.3f times per read, want 0", avg)
	}
	runtime.KeepAlive(p)
}

// TestPackedKeysDistinguishLengths guards the packed-key encoding: a
// sequence and its A-padded extension must stay distinct species even
// though A packs as zero bits.
func TestPackedKeysDistinguishLengths(t *testing.T) {
	p := New()
	for _, s := range []string{"", "A", "AA", "AAA", "AAAA", "AAAAA", "C", "CA", "CAA", "CAAA", "CAAAA"} {
		if s == "" {
			continue
		}
		p.Add(dna.MustFromString(s), 1, Meta{})
	}
	if p.Len() != 10 {
		t.Fatalf("A-padding collision: %d species, want 10", p.Len())
	}
	for i, n := 0, p.Len(); i < n; i++ {
		if a := p.Abundance(i); a != 1 {
			t.Errorf("species %d abundance %v, want 1", i, a)
		}
	}
}

// TestCloneIndependence verifies the direct copy path: clones share no
// mutable state with the original.
func TestCloneIndependence(t *testing.T) {
	p := New()
	a := dna.MustFromString("ACGTACGT")
	b := dna.MustFromString("TTTTACGT")
	p.Add(a, 5, Meta{Block: 1})
	p.Add(b, 7, Meta{Block: 2})
	c := p.Clone()
	c.Add(a, 3, Meta{})                          // grow existing in clone
	c.Add(dna.MustFromString("GGGG"), 2, Meta{}) // new species in clone
	p.Scale(10)                                  // mutate original
	if got := c.Abundance(0); got != 8 {
		t.Errorf("clone abundance %v, want 8", got)
	}
	if got := p.Abundance(0); got != 50 {
		t.Errorf("original abundance %v, want 50", got)
	}
	if p.Len() != 2 || c.Len() != 3 {
		t.Errorf("len original %d clone %d, want 2 and 3", p.Len(), c.Len())
	}
}

// TestTopSpeciesStableOrder pins the satellite fix: equal-abundance
// species keep insertion order.
func TestTopSpeciesStableOrder(t *testing.T) {
	p := New()
	seqs := []string{"AAAA", "CCCC", "GGGG", "TTTT", "ACGT"}
	for _, s := range seqs {
		p.Add(dna.MustFromString(s), 5, Meta{})
	}
	p.Add(dna.MustFromString("AGGA"), 9, Meta{})
	top := p.TopSpecies(6)
	if top[0].Seq.String() != "AGGA" {
		t.Fatalf("top species %v, want AGGA", top[0].Seq)
	}
	for i, s := range seqs {
		if got := top[i+1].Seq.String(); got != s {
			t.Errorf("rank %d = %s, want %s (stable insertion order)", i+1, got, s)
		}
	}
}

func BenchmarkPoolAdd(b *testing.B) {
	r := rng.New(5)
	seqs := make([]dna.Seq, 512)
	for i := range seqs {
		s := make(dna.Seq, 150)
		for j := range s {
			s[j] = dna.Base(r.Intn(4))
		}
		seqs[i] = s
	}
	p := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Add(seqs[i%len(seqs)], 1, Meta{})
	}
}
