package cluster

import (
	"fmt"
	"reflect"
	"sync"
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

// makeReads produces numStrands random originals and reads-per-strand
// noisy copies of each, returning the reads and the origin of each read.
func makeReads(r *rng.Source, numStrands, readsPer int, rates channel.Rates) ([]dna.Seq, []int) {
	var reads []dna.Seq
	var origin []int
	for s := 0; s < numStrands; s++ {
		orig := randomSeq(r, 150)
		for i := 0; i < readsPer; i++ {
			reads = append(reads, channel.Corrupt(r, orig, rates))
			origin = append(origin, s)
		}
	}
	// Shuffle so clusters are not trivially contiguous.
	r.Shuffle(len(reads), func(i, j int) {
		reads[i], reads[j] = reads[j], reads[i]
		origin[i], origin[j] = origin[j], origin[i]
	})
	return reads, origin
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Q: 2, NumHashes: 4, MaxDist: 10},
		{Q: 12, NumHashes: 0, MaxDist: 10},
		{Q: 12, NumHashes: 4, MaxDist: -1},
		{Q: 40, NumHashes: 4, MaxDist: 10},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if _, err := Group(nil, Config{}); err == nil {
		t.Error("invalid config accepted by Group")
	}
}

func TestGroupPerfectReads(t *testing.T) {
	r := rng.New(1)
	reads, origin := makeReads(r, 20, 10, channel.Noiseless())
	clusters, err := Group(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 20 {
		t.Fatalf("%d clusters for 20 strands", len(clusters))
	}
	for _, c := range clusters {
		if len(c) != 10 {
			t.Fatalf("cluster size %d want 10", len(c))
		}
		want := origin[c[0]]
		for _, ri := range c {
			if origin[ri] != want {
				t.Fatal("cluster mixes origins")
			}
		}
	}
}

func TestGroupNoisyReads(t *testing.T) {
	r := rng.New(2)
	reads, origin := makeReads(r, 50, 12, channel.Illumina())
	clusters, err := Group(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Purity: within each cluster, all reads share an origin.
	impure := 0
	clustered := 0
	for _, c := range clusters {
		if len(c) < 2 {
			continue
		}
		counts := map[int]int{}
		for _, ri := range c {
			counts[origin[ri]]++
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		clustered += len(c)
		impure += len(c) - max
	}
	if frac := float64(impure) / float64(clustered); frac > 0.01 {
		t.Errorf("impurity %.3f above 1%%", frac)
	}
	// Completeness: most strands should map to one dominant cluster of
	// roughly full size.
	big := 0
	for _, c := range clusters {
		if len(c) >= 9 {
			big++
		}
	}
	if big < 45 {
		t.Errorf("only %d/50 strands recovered as near-complete clusters", big)
	}
}

func TestGroupSortedBySize(t *testing.T) {
	r := rng.New(3)
	var reads []dna.Seq
	a := randomSeq(r, 150)
	b := randomSeq(r, 150)
	for i := 0; i < 3; i++ {
		reads = append(reads, a.Clone())
	}
	for i := 0; i < 7; i++ {
		reads = append(reads, b.Clone())
	}
	clusters, err := Group(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 || len(clusters[0]) != 7 || len(clusters[1]) != 3 {
		t.Fatalf("clusters not sorted by size: %v", clusters)
	}
}

func TestGroupEmptyAndShortReads(t *testing.T) {
	clusters, err := Group(nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 0 {
		t.Error("clusters from no reads")
	}
	// Reads shorter than Q must not panic and must cluster exact copies.
	short := []dna.Seq{
		dna.MustFromString("ACGT"),
		dna.MustFromString("ACGT"),
		dna.MustFromString("TTTT"),
	}
	clusters, err = Group(short, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Errorf("%d clusters for short reads, want 2", len(clusters))
	}
}

func TestGroupSeparatesSimilarPrefixes(t *testing.T) {
	// Strands sharing a 31-base prefix (same elongated primer) but with
	// different payloads must not merge: the distance between random
	// 119-base payloads is far above MaxDist.
	r := rng.New(4)
	prefix := randomSeq(r, 31)
	var reads []dna.Seq
	for s := 0; s < 5; s++ {
		strand := dna.Concat(prefix, randomSeq(r, 119))
		for i := 0; i < 6; i++ {
			reads = append(reads, channel.Corrupt(r, strand, channel.Illumina()))
		}
	}
	clusters, err := Group(reads, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	big := 0
	for _, c := range clusters {
		if len(c) >= 5 {
			big++
		}
	}
	if big != 5 {
		t.Errorf("%d big clusters, want 5 (shared prefixes must not merge)", big)
	}
}

func BenchmarkGroup2kReads(b *testing.B) {
	r := rng.New(5)
	reads, _ := makeReads(r, 50, 40, channel.Illumina())
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Group(reads, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGroupAllocsBounded pins the epoch-stamp dedup and signature
// buffer reuse: steady-state clustering allocates O(clusters), not
// O(reads) maps.
func TestGroupAllocsBounded(t *testing.T) {
	r := rng.New(31)
	reads, _ := makeReads(r, 8, 25, channel.Illumina()) // 200 reads
	cfg := DefaultConfig()
	avg := testing.AllocsPerRun(20, func() {
		if _, err := Group(reads, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: bucket map + per-cluster member slices and their growth +
	// per-cluster compiled representative patterns (3 allocations each) +
	// epoch slice + sort scratch. Anything O(len(reads)) blows this.
	if limit := 160.0; avg > limit {
		t.Errorf("Group allocates %.1f times per call for 200 reads, want <= %.0f", avg, limit)
	}
}

// TestWithinDistMatchesLevenshteinAtMost pins the staged bit-parallel
// probe against the single-shot check across the distance spectrum.
func TestWithinDistMatchesLevenshteinAtMost(t *testing.T) {
	r := rng.New(32)
	for i := 0; i < 300; i++ {
		a := randomSeq(r, 120+r.Intn(40))
		var b dna.Seq
		switch i % 3 {
		case 0:
			b = channel.Corrupt(r, a, channel.Illumina()) // near
		case 1:
			b = channel.Corrupt(r, a, channel.Nanopore()) // mid
		default:
			b = randomSeq(r, 120+r.Intn(40)) // far
		}
		pat := dna.CompilePattern(a)
		for _, k := range []int{0, 3, 6, 12, 20} {
			if got, want := withinDist(pat, b, k), pat.LevenshteinAtMost(b, k); got != want {
				t.Fatalf("withinDist(k=%d) = %v, LevenshteinAtMost = %v", k, got, want)
			}
		}
	}
}

// TestGroupJoinsMatchBandedReference pins every join the packed path
// makes against the single-pass distance kernel: each member of a
// cluster must be within MaxDist of its representative under
// Pattern.LevenshteinAtMost, so the staged withinDist probe never joins
// a read the full-budget check would reject.
func TestGroupJoinsMatchBandedReference(t *testing.T) {
	r := rng.New(33)
	reads, _ := makeReads(r, 30, 15, channel.Nanopore())
	cfg := DefaultConfig()
	clusters, err := Group(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range clusters {
		rep := dna.CompilePattern(reads[c[0]])
		for _, ri := range c[1:] {
			if !rep.LevenshteinAtMost(reads[ri], cfg.MaxDist) {
				t.Fatalf("cluster %d: member %d beyond MaxDist of its representative", ci, ri)
			}
		}
	}
}

// TestGroupDeterministicConcurrent runs Group on one read set from many
// goroutines (compiled representative patterns are shared-read state;
// run with -race) and requires byte-identical groups every time — the
// property the parallel decode pipeline depends on at any worker count.
func TestGroupDeterministicConcurrent(t *testing.T) {
	r := rng.New(34)
	reads, _ := makeReads(r, 40, 12, channel.Illumina())
	cfg := DefaultConfig()
	want, err := Group(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Group(reads, cfg)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- fmt.Errorf("concurrent Group produced different clusters")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
