package pool

import (
	"math"
	"runtime/debug"
	"sync"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// randomPool builds n distinct random strands of the given length.
func randomPool(seed uint64, n, strandLen int) *Pool {
	r := rng.New(seed)
	p := New()
	for i := 0; i < n; i++ {
		s := make(dna.Seq, strandLen)
		for j := range s {
			s[j] = dna.Base(r.Intn(4))
		}
		p.Add(s, 1+float64(i%13), Meta{Partition: "t", Block: i, OriginBlock: i})
	}
	return p
}

// TestCloneSnapshotIsolation pins the copy-on-write contract: a snapshot
// taken before a burst of parent mutations is byte-identical to the
// parent's state at snapshot time, whatever the parent does afterwards.
func TestCloneSnapshotIsolation(t *testing.T) {
	p := randomPool(1, 500, 60)
	snap := p.Clone()
	want := p.Digest()

	// Mutate the parent through every write path.
	p.Add(dna.MustFromString("ACGTACGTACGT"), 3, Meta{Block: 9999})
	p.Boost(0, 100)
	p.SetAbundance(1, 0)
	p.Scale(2)
	other := randomPool(2, 50, 60)
	p.MixInto(other, 0.5)

	if snap.Digest() != want {
		t.Fatal("snapshot drifted while parent mutated")
	}
	if p.Digest() == want {
		t.Fatal("parent digest unchanged after mutations")
	}

	// Symmetric: mutating the snapshot leaves the parent alone.
	p2 := randomPool(3, 300, 40)
	snap2 := p2.Clone()
	before := p2.Digest()
	snap2.Boost(5, 1e6)
	snap2.Add(dna.MustFromString("GGCCGGCC"), 7, Meta{})
	snap2.Scale(0.1)
	if p2.Digest() != before {
		t.Fatal("parent drifted while snapshot mutated")
	}
}

// TestCloneChainIsolation walks a chain of snapshots of snapshots: each
// generation mutates independently without disturbing its ancestors.
func TestCloneChainIsolation(t *testing.T) {
	p := randomPool(4, 200, 50)
	digests := [][32]byte{p.Digest()}
	pools := []*Pool{p}
	cur := p
	for g := 0; g < 4; g++ {
		c := cur.Clone()
		c.Boost(g, float64(1000*(g+1)))
		c.Add(dna.MustFromString("ACAC"), float64(g+1), Meta{Block: g})
		pools = append(pools, c)
		digests = append(digests, c.Digest())
		cur = c
	}
	for i, q := range pools {
		if q.Digest() != digests[i] {
			t.Fatalf("generation %d drifted after descendants mutated", i)
		}
	}
}

// TestCloneConcurrentReaders hammers a snapshot from many readers while
// the parent keeps mutating; run under -race this proves snapshots are
// safe to read concurrently with parent writes.
func TestCloneConcurrentReaders(t *testing.T) {
	p := randomPool(5, 400, 50)
	snap := p.Clone()
	want := snap.Digest()
	wantTotal := snap.Total()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			var buf dna.Seq
			for iter := 0; iter < 50; iter++ {
				i := r.Intn(snap.Len())
				buf = snap.AppendSeq(buf[:0], i)
				if len(buf) != snap.SeqLen(i) {
					t.Error("decoded length mismatch")
					return
				}
				_ = snap.Abundance(i)
				_ = snap.MetaAt(i)
				if got := snap.Total(); got != wantTotal {
					t.Errorf("snapshot total drifted: %v != %v", got, wantTotal)
					return
				}
			}
			if snap.Digest() != want {
				t.Error("snapshot digest drifted under concurrent reads")
			}
		}(uint64(w + 10))
	}
	// Parent mutates concurrently: appends force fresh chunks, boosts
	// copy segments — none of it may be visible through the snapshot.
	for iter := 0; iter < 200; iter++ {
		p.Boost(iter%p.Len(), 1)
		if iter%10 == 0 {
			s := make(dna.Seq, 30)
			for j := range s {
				s[j] = dna.Base((iter + j) % 4)
			}
			p.Add(s, 2, Meta{Block: iter})
		}
	}
	wg.Wait()
	if snap.Digest() != want {
		t.Fatal("snapshot drifted after concurrent phase")
	}
}

// TestCloneAllocs pins Clone as O(1): one Pool header, no matter how
// many species the parent holds.
func TestCloneAllocs(t *testing.T) {
	for _, n := range []int{10, 5000} {
		p := randomPool(6, n, 60)
		if avg := testing.AllocsPerRun(100, func() { _ = p.Clone() }); avg > 1 {
			t.Errorf("Clone of %d-species pool allocates %.1f times, want <= 1", n, avg)
		}
	}
}

// TestMixIntoAllocs pins the warm mix path: re-mixing a source whose
// species all exist in the destination touches only existing records.
func TestMixIntoAllocs(t *testing.T) {
	dst := randomPool(7, 200, 60)
	src := randomPool(7, 200, 60) // same seed: identical species
	dst.MixInto(src, 1)           // warm: every span already present
	if avg := testing.AllocsPerRun(50, func() { dst.MixInto(src, 0.01) }); avg != 0 {
		t.Errorf("warm MixInto allocates %.1f times per call, want 0", avg)
	}
}

// TestTotalMatchesExhaustiveSum is the memo invariant: after any mix of
// mutations, snapshots and lazy recomputes, Total() must equal the plain
// left-fold over the records to the exact bit.
func TestTotalMatchesExhaustiveSum(t *testing.T) {
	exhaustive := func(p *Pool) float64 {
		t := 0.0
		for i, n := 0, p.Len(); i < n; i++ {
			t += p.Abundance(i)
		}
		return t
	}
	check := func(stage string, p *Pool) {
		t.Helper()
		got, want := p.Total(), exhaustive(p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Total %v != exhaustive sum %v", stage, got, want)
		}
	}

	p := randomPool(8, 777, 45)
	check("after build", p)
	p.Boost(3, 0.125)
	check("after boost", p)
	p.Add(dna.MustFromString("ACGTAC"), 1.5, Meta{})
	check("append after dirty", p)
	p.Add(dna.MustFromString("TTGGCC"), 2.25, Meta{})
	check("append while clean", p) // exercises the exact fold extension
	c := p.Clone()
	check("clone inherits memo", c)
	c.Scale(0.5)
	check("clone after scale", c)
	check("parent after clone mutated", p)
	p.SetAbundance(10, 0)
	check("after zeroing", p)
	p.MixInto(c, 2)
	check("after mix", p)
}

// BenchmarkClone measures the snapshot cost at depth: O(1) regardless of
// pool size.
func BenchmarkClone(b *testing.B) {
	p := randomPool(9, 100_000, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Clone()
	}
}

// BenchmarkTopSpecies exercises the bounded-heap selection on a
// 10^5-species pool, the regime where the old full sort dominated.
func BenchmarkTopSpecies(b *testing.B) {
	p := randomPool(10, 100_000, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.TopSpecies(10); len(got) != 10 {
			b.Fatal("short selection")
		}
	}
}

// BenchmarkMixInto measures the packed arena-to-arena mix of a 10k pool
// into a warm destination.
func BenchmarkMixInto(b *testing.B) {
	src := randomPool(11, 10_000, 60)
	dst := randomPool(11, 10_000, 60)
	dst.MixInto(src, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.MixInto(src, 0.001)
	}
}

// mutateRandomly boosts and overwrites species in the first segment and
// appends new ones, so the pool copies some segments, leaves the others
// shared and opens arena chunks.
func mutateRandomly(p *Pool, seed uint64) {
	r := rng.New(seed)
	for k := 0; k < 200; k++ {
		p.Boost(r.Intn(segLen), 1+r.Float64())
		p.SetAbundance(r.Intn(segLen), r.Float64())
	}
	s := make(dna.Seq, 150)
	for k := 0; k < 400; k++ {
		for j := range s {
			s[j] = dna.Base(r.Intn(4))
		}
		p.Add(s, 1+r.Float64(), Meta{Partition: "m", Block: k, Misprimed: k%2 == 0})
	}
}

// TestReleaseKeepsSharedStorage pins Release's ownership rule: a pool
// hands back only what it wrote since its latest Clone. After either
// side of a clone chain is released and fresh pools overwrite the
// recycled storage, the tube and every surviving clone keep their
// digests. The collector is off so the fresh pools really draw the
// released segments and chunks.
func TestReleaseKeepsSharedStorage(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, victim := range []string{"a", "b"} {
		tube := randomPool(11, 3000, 150)
		a := tube.Clone()
		mutateRandomly(a, 1)
		b := a.Clone()
		c := b.Clone()
		mutateRandomly(a, 2)
		mutateRandomly(b, 3)
		pools := map[string]*Pool{"tube": tube, "a": a, "b": b, "c": c}
		want := map[string][32]byte{}
		for name, p := range pools {
			want[name] = p.Digest()
		}
		rel := pools[victim]
		delete(pools, victim)
		g := rel.gen.Load()
		segs, chunks := map[*segment]bool{}, map[*byte]bool{}
		for _, s := range rel.segs {
			if s.gen == g {
				segs[s] = true
			}
		}
		for _, ch := range rel.chunks {
			if ch.gen == g {
				chunks[&ch.b[0]] = true
			}
		}
		if len(segs) == 0 || len(chunks) == 0 {
			t.Fatalf("%s owns %d segments and %d chunks, want some of each", victim, len(segs), len(chunks))
		}
		rel.Release()
		if rel.Len() != 0 || rel.Total() != 0 {
			t.Fatalf("released %s holds %d species, total %v", victim, rel.Len(), rel.Total())
		}
		// Fresh pools draw the released storage and overwrite it.
		reusedSegs, reusedChunks := 0, 0
		for i := uint64(0); i < 3; i++ {
			f := tube.Clone()
			mutateRandomly(f, 10+i)
			g := randomPool(20+i, 1500, 150)
			for _, p := range []*Pool{f, g} {
				for _, s := range p.segs {
					if segs[s] {
						reusedSegs++
					}
				}
				for _, ch := range p.chunks {
					if chunks[&ch.b[0]] {
						reusedChunks++
					}
				}
			}
		}
		if reusedSegs == 0 || reusedChunks == 0 {
			t.Errorf("release of %s: fresh pools reused %d segments and %d chunks, want some of each", victim, reusedSegs, reusedChunks)
		}
		for name, p := range pools {
			if p.Digest() != want[name] {
				t.Errorf("release of %s changed the digest of %s", victim, name)
			}
		}
	}
}

// TestReleaseRecyclesWholeReaction pins that the free lists take back
// all the record segments of a reaction-sized pool: a fresh pool of the
// same size draws every one of them instead of allocating. The pool is
// as large as an aged tube's amplified product. The collector is off
// so the weak free lists keep what was put.
func TestReleaseRecyclesWholeReaction(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 23 * segLen
	rel := randomPool(61, n, 150)
	segs := map[*segment]bool{}
	for _, s := range rel.segs {
		segs[s] = true
	}
	rel.Release()
	fresh := randomPool(62, n, 150)
	reused := 0
	for _, s := range fresh.segs {
		if segs[s] {
			reused++
		}
	}
	if reused != len(segs) {
		t.Errorf("fresh pool reused %d of %d released segments", reused, len(segs))
	}
}
