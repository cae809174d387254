package seqsim

import (
	"math"
	"runtime/debug"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
)

// referenceSample is the batch draw loop over a freshly built alias
// table, kept as the definition that Sample, Stream and the recycled
// stream tables are pinned to draw for draw.
func referenceSample(r *rng.Source, p *pool.Pool, n int, rates channel.Rates) ([]Read, error) {
	t := new(aliasTable)
	if err := buildAlias(t, p); err != nil {
		return nil, err
	}
	reads := make([]Read, 0, n)
	var tmpl dna.Seq
	for i := 0; i < n; i++ {
		si := int(t.draw(r))
		tmpl = p.AppendSeq(tmpl[:0], si)
		reads = append(reads, Read{
			Seq:  channel.Corrupt(r, tmpl, rates),
			Meta: p.MetaAt(si),
		})
	}
	return reads, nil
}

func buildPool() *pool.Pool {
	p := pool.New()
	p.Add(dna.MustFromString("AAAACCCCGGGGTTTT"), 900, pool.Meta{Block: 0, OriginBlock: 0})
	p.Add(dna.MustFromString("TTTTGGGGCCCCAAAA"), 100, pool.Meta{Block: 1, OriginBlock: 1})
	return p
}

func TestSampleProportionalToAbundance(t *testing.T) {
	p := buildPool()
	r := rng.New(1)
	reads, err := Sample(r, p, 10000, channel.Noiseless())
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 10000 {
		t.Fatalf("read count %d", len(reads))
	}
	count0 := 0
	for _, rd := range reads {
		if rd.Meta.Block == 0 {
			count0++
		}
	}
	frac := float64(count0) / 10000
	if math.Abs(frac-0.9) > 0.02 {
		t.Errorf("block 0 fraction %.3f want ~0.9", frac)
	}
}

func TestSampleAppliesChannel(t *testing.T) {
	p := buildPool()
	r := rng.New(2)
	reads, err := Sample(r, p, 500, channel.Rates{Sub: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	mutated := 0
	for _, rd := range reads {
		orig := dna.MustFromString("AAAACCCCGGGGTTTT")
		if rd.Meta.Block == 1 {
			orig = dna.MustFromString("TTTTGGGGCCCCAAAA")
		}
		if !rd.Seq.Equal(orig) {
			mutated++
		}
	}
	if mutated < 300 {
		t.Errorf("only %d/500 reads mutated at 10%% substitution", mutated)
	}
}

func TestSampleValidation(t *testing.T) {
	p := buildPool()
	r := rng.New(3)
	if _, err := Sample(r, p, -1, channel.Rates{}); err == nil {
		t.Error("negative read count accepted")
	}
	if _, err := Sample(r, pool.New(), 10, channel.Rates{}); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := Sample(r, p, 10, channel.Rates{Sub: 2}); err == nil {
		t.Error("invalid rates accepted")
	}
	empty := pool.New()
	empty.Add(dna.MustFromString("ACGT"), 1, pool.Meta{})
	empty.Scale(0)
	if _, err := Sample(r, empty, 10, channel.Rates{}); err == nil {
		t.Error("zero-abundance pool accepted")
	}
}

func TestNGSModel(t *testing.T) {
	c := MiSeqLike()
	if c.RunsNeeded(0) != 0 {
		t.Error("zero reads should need zero runs")
	}
	if c.RunsNeeded(1) != 1 {
		t.Error("one read needs a full run")
	}
	if got := c.RunsNeeded(c.ReadsPerRun + 1); got != 2 {
		t.Errorf("runs %d want 2", got)
	}
	// Latency quantizes: a single read costs a full run.
	if c.Latency(1) != c.HoursPerRun {
		t.Error("NGS latency not quantized by run")
	}
	// Section 7.4: a 1TB partition (~6.6B reads at 150 bases) needs ~1000
	// MiSeq runs; a block 1/141 the size needs proportionally fewer.
	partitionReads := 6_600_000_000
	blockReads := partitionReads / 141
	full := c.RunsNeeded(partitionReads)
	blk := c.RunsNeeded(blockReads)
	ratio := float64(full) / float64(blk)
	if ratio < 100 || ratio > 200 {
		t.Errorf("run reduction %.0fx, want ~141x", ratio)
	}
	if c.Cost(partitionReads) <= c.Cost(blockReads) {
		t.Error("cost not reduced")
	}
}

func TestNanoporeModel(t *testing.T) {
	c := MinIONLike()
	if c.Latency(0) != 0 {
		t.Error("zero reads should have zero latency")
	}
	// Streaming latency is strictly linear: 141x fewer reads, 141x less time.
	l1 := c.Latency(141_000)
	l2 := c.Latency(1_000)
	if math.Abs(l1/l2-141) > 1e-9 {
		t.Errorf("nanopore latency ratio %v want 141", l1/l2)
	}
	if c.Cost(100) >= c.Cost(10000) {
		t.Error("nanopore cost not increasing")
	}
}

func TestCoverageReadsNeeded(t *testing.T) {
	// Paper Section 8: recovering 30 strands at coverage ~7.5 with only
	// 0.34% useful reads needs ~50000-70000 reads; at 48% useful, a few
	// hundred suffice (225 observed).
	baseline, err := CoverageReadsNeeded(30, 7.5, 0.0034)
	if err != nil {
		t.Fatal(err)
	}
	ours, err := CoverageReadsNeeded(30, 7.5, 0.48)
	if err != nil {
		t.Fatal(err)
	}
	if baseline < 40000 || baseline > 90000 {
		t.Errorf("baseline reads %d, want ~66k", baseline)
	}
	if ours < 200 || ours > 700 {
		t.Errorf("our reads %d, want a few hundred", ours)
	}
	reduction := float64(baseline) / float64(ours)
	if reduction < 100 || reduction > 200 {
		t.Errorf("read reduction %.0fx, want ~141x", reduction)
	}
	if _, err := CoverageReadsNeeded(30, 7.5, 0); err == nil {
		t.Error("zero useful fraction accepted")
	}
	if _, err := CoverageReadsNeeded(0, 1, 0.5); err == nil {
		t.Error("zero target accepted")
	}
}

func BenchmarkSample50k(b *testing.B) {
	p := buildPool()
	r := rng.New(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(r, p, 50000, channel.Illumina()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSampleMatchesReference pins Sample, which draws through a
// Stream, to the batch reference loop draw for draw.
func TestSampleMatchesReference(t *testing.T) {
	p := buildPool()
	a, err := referenceSample(rng.New(77), p, 500, channel.Illumina())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(rng.New(77), p, 500, channel.Illumina())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Seq.Equal(b[i].Seq) || a[i].Meta != b[i].Meta {
			t.Fatalf("read %d differs between Sample and the reference", i)
		}
	}
}

// TestNewSamplerValidates pins the hoisted validation.
func TestNewSamplerValidates(t *testing.T) {
	if _, err := NewSampler(channel.Rates{Sub: -1}); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestSampleSkipsZeroAbundance verifies the cumulative table drops
// zero-abundance species: no read may come from one.
func TestSampleSkipsZeroAbundance(t *testing.T) {
	p := pool.New()
	p.Add(dna.MustFromString("AAAACCCCGGGGTTTT"), 10, pool.Meta{Block: 0})
	p.Add(dna.MustFromString("TTTTGGGGCCCCAAAA"), 5, pool.Meta{Block: 1})
	p.Scale(1) // no-op; keep both positive first
	reads, err := Sample(rng.New(3), p, 200, channel.Noiseless())
	if err != nil {
		t.Fatal(err)
	}
	saw := map[int]bool{}
	for _, r := range reads {
		saw[r.Meta.Block] = true
	}
	if !saw[0] || !saw[1] {
		t.Fatal("expected both species in the noiseless sample")
	}
	// Zero one species out; only the other may appear.
	p.SetAbundance(0, 0)
	reads, err = Sample(rng.New(4), p, 200, channel.Noiseless())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		if r.Meta.Block != 1 {
			t.Fatalf("read %d drawn from zero-abundance species (block %d)", i, r.Meta.Block)
		}
	}
}

// TestSampleAllocs bounds Sample's allocations: one sequence per read,
// the read slice, and the Stream — nothing per-base, and no alias table
// while a closed stream's table is free to reuse.
func TestSampleAllocs(t *testing.T) {
	p := buildPool()
	r := rng.New(11)
	const n = 100
	avg := testing.AllocsPerRun(50, func() {
		if _, err := Sample(r, p, n, channel.Illumina()); err != nil {
			t.Fatal(err)
		}
	})
	// n read sequences + reads slice + the Stream + its template
	// buffer (two append growths for these 16-base species) is n+4;
	// the slack covers the occasional growth inside AppendCorrupt and a
	// table rebuilt after a collection freed the recycled one.
	if limit := float64(n) + 8; avg > limit {
		t.Errorf("Sample allocates %.1f times per call, want <= %.0f", avg, limit)
	}
}

// BenchmarkSample times one sequencing run over a large pool: an alias
// table build plus 50k draws.
func BenchmarkSample(b *testing.B) {
	r := rng.New(21)
	p := pool.New()
	for i := 0; i < 2000; i++ {
		s := make(dna.Seq, 150)
		for j := range s {
			s[j] = dna.Base(r.Intn(4))
		}
		p.Add(s, 50+float64(i%13), pool.Meta{Block: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sample(r, p, 50000, channel.Illumina()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSamplerTracksPoolMutation pins that sampling follows the pool's
// current composition: a pool mutated after being sampled must be
// resampled under its new contents.
func TestSamplerTracksPoolMutation(t *testing.T) {
	p := pool.New()
	a := dna.MustFromString("AAAACCCCGGGGTTTT")
	b := dna.MustFromString("TTTTGGGGCCCCAAAA")
	p.Add(a, 1000, pool.Meta{Block: 0})
	r := rng.New(9)
	// Error-free channel: reads identify species.
	reads, err := Sample(r, p, 200, channel.Rates{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range reads {
		if !rd.Seq.Equal(a) {
			t.Fatal("single-species pool produced a foreign read")
		}
	}
	// Swamp the pool with species b; a stale table would keep drawing a.
	p.Add(b, 1e9, pool.Meta{Block: 1})
	reads, err = Sample(r, p, 200, channel.Rates{})
	if err != nil {
		t.Fatal(err)
	}
	nb := 0
	for _, rd := range reads {
		if rd.Seq.Equal(b) {
			nb++
		}
	}
	if nb < 190 {
		t.Errorf("after mutation only %d/200 reads are the dominant species; stale alias table?", nb)
	}
	// Scale is also a mutation: zeroing the pool must surface as an error.
	p.Scale(0)
	if _, err := Sample(r, p, 10, channel.Rates{}); err == nil {
		t.Error("zero-abundance pool sampled without error")
	}
}

// TestStreamMatchesSample pins the streaming rng contract: an ungated
// Stream produces bit-identical reads, in order, to the batch reference
// loop off the same seed.
func TestStreamMatchesSample(t *testing.T) {
	p := buildPool()
	sm, err := NewSampler(channel.Nanopore())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := referenceSample(rng.New(7), p, 200, channel.Nanopore())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sm.Stream(rng.New(7), p)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range batch {
		got, ok := st.Next(nil)
		if !ok {
			t.Fatalf("read %d: ungated Next rejected", i)
		}
		if !got.Seq.Equal(want.Seq) || got.Meta != want.Meta {
			t.Fatalf("read %d diverges from the batch reference", i)
		}
	}
	if st.Sequenced != len(batch) || st.Ejected != 0 {
		t.Fatalf("counters %d/%d, want %d/0", st.Sequenced, st.Ejected, len(batch))
	}
}

// TestStreamGateEjects pins adaptive-sampling semantics: rejected
// species cost a draw but yield no read, and the surviving reads are
// exactly the batch reads of the kept species re-corrupted in stream
// order (ejection skips the channel, so the rng streams differ — only
// composition is asserted).
func TestStreamGateEjects(t *testing.T) {
	p := buildPool()
	sm, err := NewSampler(channel.Noiseless())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sm.Stream(rng.New(8), p)
	if err != nil {
		t.Fatal(err)
	}
	gate := func(si int) bool { return p.MetaAt(si).Block == 1 }
	kept := 0
	for i := 0; i < 2000; i++ {
		rd, ok := st.Next(gate)
		if !ok {
			continue
		}
		if rd.Meta.Block != 1 {
			t.Fatalf("gate passed a block-%d molecule", rd.Meta.Block)
		}
		kept++
	}
	if st.Sequenced != kept || st.Sequenced+st.Ejected != 2000 {
		t.Fatalf("counters %d+%d, want sum 2000", st.Sequenced, st.Ejected)
	}
	// Block 1 is 10% of the pool; ejection must not distort the draw.
	if kept < 130 || kept > 270 {
		t.Errorf("kept %d of 2000, want ~200", kept)
	}
}

// randomPool builds n random species with uneven, partly zero
// abundances.
func randomPool(seed uint64, n int) *pool.Pool {
	r := rng.New(seed)
	p := pool.New()
	s := make(dna.Seq, 40)
	for i := 0; i < n; i++ {
		for j := range s {
			s[j] = dna.Base(r.Intn(4))
		}
		a := float64(r.Intn(50))
		if i == 0 {
			a = 1 // at least one drawable species
		}
		p.Add(s, max(a, 1), pool.Meta{Block: i})
		if a == 0 {
			p.SetAbundance(p.Len()-1, 0)
		}
	}
	return p
}

// TestStreamTableReuse pins the recycled stream tables: streams over
// pools of different sizes, each closed before the next opens, take
// over the last stream's alias table and draw exactly what the reference
// loop draws from a fresh table. Both sides read through AppendNext and Next
// into a reused buffer. The collector is off so every stream after the
// first really reuses a table.
func TestStreamTableReuse(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sm, err := NewSampler(channel.Illumina())
	if err != nil {
		t.Fatal(err)
	}
	var last *aliasTable
	var buf dna.Seq
	for i, n := range []int{3000, 20, 700, 3000, 1} {
		p := randomPool(uint64(40+i), n)
		want, err := referenceSample(rng.New(9), p, 500, channel.Illumina())
		if err != nil {
			t.Fatal(err)
		}
		st, err := sm.Stream(rng.New(9), p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && st.t != last {
			t.Fatalf("stream %d built a new table instead of reusing the closed one", i)
		}
		last = st.t
		for j, w := range want {
			var rd Read
			var ok bool
			if j%2 == 0 {
				rd, ok = st.AppendNext(buf[:0], nil)
				buf = rd.Seq
			} else {
				rd, ok = st.Next(nil)
			}
			if !ok || !rd.Seq.Equal(w.Seq) || rd.Meta != w.Meta {
				t.Fatalf("pool of %d species, read %d: stream diverges from the reference", n, j)
			}
		}
		st.Close()
		st.Close() // a second Close is a no-op
	}
}
