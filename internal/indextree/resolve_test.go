package indextree

import (
	"fmt"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// nearestLeafScan is the reference Resolve is pinned to: it encodes
// every leaf and aligns it against the query, keeping the lowest leaf
// at the smallest distance within maxDist and stopping at distance 0.
// It is linear in the leaf count, so it only serves trees of moderate
// depth, and like every compiled-pattern kernel it takes bases 0-3.
func nearestLeafScan(t *Tree, seq dna.Seq, maxDist int) (leaf, dist int, ok bool) {
	pat := dna.CompilePattern(seq)
	bestLeaf, bestDist := -1, maxDist+1
	for l := 0; l < t.Leaves(); l++ {
		idx, err := t.Encode(l)
		if err != nil {
			panic(err)
		}
		d, ok := pat.DistanceAtMost(idx, bestDist-1)
		if !ok {
			continue
		}
		bestLeaf, bestDist = l, d
		if d == 0 {
			break
		}
	}
	if bestLeaf < 0 {
		return 0, 0, false
	}
	return bestLeaf, bestDist, true
}

// editDistance is the unbanded Levenshtein DP over raw base values, so
// it also measures queries holding out-of-alphabet bytes.
func editDistance(a, b dna.Seq) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			d := prev[j-1]
			if a[i-1] != b[j-1] {
				d++
			}
			d = min(d, prev[j]+1, cur[j-1]+1)
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// mutate applies k random substitutions, insertions and deletions to a
// copy of seq.
func mutate(seq dna.Seq, k int, r *rng.Source) dna.Seq {
	out := seq.Clone()
	for e := 0; e < k; e++ {
		switch op := r.Intn(3); {
		case op == 0 && len(out) > 0:
			i := r.Intn(len(out))
			out[i] = dna.Base((int(out[i]) + 1 + r.Intn(3)) & 3)
		case op == 1 && len(out) > 0:
			i := r.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		default:
			i := r.Intn(len(out) + 1)
			out = append(out[:i], append(dna.Seq{dna.Base(r.Intn(4))}, out[i:]...)...)
		}
	}
	return out
}

// randomSeq draws n uniform bases.
func randomSeq(n int, r *rng.Source) dna.Seq {
	out := make(dna.Seq, n)
	for i := range out {
		out[i] = dna.Base(r.Intn(4))
	}
	return out
}

// resolveTrees are the trees the differential test and the fuzz target
// cover: every variant at depths 1-6 and one depth past the cached
// levels, where node parameters are recomputed below the cache.
func resolveTrees(tb testing.TB) []*Tree {
	var trees []*Tree
	for _, v := range []Variant{Sparse, SparseRandom, Dense} {
		for _, depth := range []int{1, 2, 3, 4, 5, 6, cacheLevels + 1} {
			tr, err := NewVariant(depth, 17+uint64(depth), v)
			if err != nil {
				tb.Fatal(err)
			}
			trees = append(trees, tr)
		}
	}
	return trees
}

// checkResolve compares Resolve against the scan for one query.
func checkResolve(t *testing.T, tr *Tree, q dna.Seq, maxDist int, what string) {
	t.Helper()
	leaf, dist, ok := tr.Resolve(q, maxDist)
	wl, wd, wok := nearestLeafScan(tr, q, maxDist)
	if ok != wok || leaf != wl || dist != wd {
		t.Fatalf("%v depth %d maxDist %d, %s %v: Resolve = (%d, %d, %v), scan = (%d, %d, %v)",
			tr.Variant(), tr.Depth(), maxDist, what, q, leaf, dist, ok, wl, wd, wok)
	}
}

func TestResolve(t *testing.T) {
	tr := MustNew(5, 31)
	idx, _ := tr.Encode(531)
	if leaf, dist, ok := tr.Resolve(idx, 3); !ok || leaf != 531 || dist != 0 {
		t.Fatalf("exact index: leaf=%d dist=%d ok=%v", leaf, dist, ok)
	}
	// One substitution resolves at distance 1. The damaged spacer is
	// also one edit from a sibling's index, and the tie goes to the
	// lower leaf, as the scan has it.
	mut := idx.Clone()
	mut[9] = mut[8] // invalid spacer, distance 1 from true index
	leaf, dist, ok := tr.Resolve(mut, 3)
	if !ok || dist != 1 {
		t.Errorf("mutated index: leaf=%d dist=%d ok=%v, want distance 1", leaf, dist, ok)
	}
	checkResolve(t, tr, mut, 3, "damaged spacer")
	// An all-A sequence is GC-imbalanced and cannot be a valid index,
	// so no leaf is within distance 0.
	if _, _, ok := tr.Resolve(dna.MustFromString("AAAAAAAAAA"), 0); ok {
		t.Error("all-A index matched at distance 0")
	}
	if _, _, ok := tr.Resolve(idx, -1); ok {
		t.Error("negative maxDist resolved")
	}
	long := append(idx.Clone(), dna.A, dna.A, dna.A, dna.A)
	if _, _, ok := tr.Resolve(long, 3); ok {
		t.Error("query longer than IndexLen()+maxDist resolved")
	}
	// A query too long for the stack-held DP table still matches the scan.
	checkResolve(t, MustNew(2, 3), randomSeq(400, rng.New(2)), 400, "400-base query")
	// Out-of-alphabet bytes mismatch every tree letter.
	bad := idx.Clone()
	bad[4] = 9
	if leaf, dist, ok := tr.Resolve(bad, 2); !ok || leaf != 531 || dist != 1 {
		t.Errorf("out-of-alphabet base: leaf=%d dist=%d ok=%v, want 531 at 1", leaf, dist, ok)
	}
}

// TestResolveMatchesScan pins Resolve to the leaf scan on substituted,
// inserted, deleted, truncated and random queries, including ties
// (a truncated index is equally far from all its siblings).
func TestResolveMatchesScan(t *testing.T) {
	r := rng.New(24)
	queries := 0
	for _, tr := range resolveTrees(t) {
		n, per := tr.IndexLen(), tr.basesPerLevel()
		samples := 12
		if tr.Leaves() > 1024 {
			samples = 3
		}
		for maxDist := 0; maxDist <= 3; maxDist++ {
			for s := 0; s < samples; s++ {
				idx, _ := tr.Encode(r.Intn(tr.Leaves()))
				checkResolve(t, tr, idx, maxDist, "exact")
				for k := 1; k <= 3; k++ {
					checkResolve(t, tr, mutate(idx, k, r), maxDist, fmt.Sprintf("%d edits of an index", k))
				}
				checkResolve(t, tr, idx[:n-per], maxDist, "last level dropped")
				checkResolve(t, tr, append(idx[per:].Clone(), idx[:per]...), maxDist, "rotated")
				checkResolve(t, tr, randomSeq(n, r), maxDist, "random")
				checkResolve(t, tr, randomSeq(r.Intn(n+maxDist+2), r), maxDist, "random length")
				queries += 8
			}
		}
	}
	t.Logf("%d queries matched the scan", queries)
}

// TestResolveAllocs pins Resolve allocation-free on exact, damaged and
// unresolvable queries, from the paper's depth to the 10^6-strand
// point's.
func TestResolveAllocs(t *testing.T) {
	for _, depth := range []int{3, 5, 9} {
		tr := MustNew(depth, 7)
		idx, _ := tr.Encode(tr.Leaves() / 3)
		damaged := idx.Clone()
		// A spacer never equals its edge letter, and an all-A query is
		// depth GC letters away from every index.
		damaged[1] = damaged[0]
		allA := make(dna.Seq, tr.IndexLen())
		for _, c := range []struct {
			name   string
			q      dna.Seq
			wantOK bool
		}{
			{"exact", idx, true},
			{"damaged", damaged, true},
			{"unresolvable", allA, false},
		} {
			var ok bool
			allocs := testing.AllocsPerRun(50, func() {
				_, _, ok = tr.Resolve(c.q, 2)
			})
			if ok != c.wantOK {
				t.Errorf("depth %d %s: ok=%v, want %v", depth, c.name, ok, c.wantOK)
			}
			if allocs != 0 {
				t.Errorf("depth %d %s: %.0f allocations per Resolve, want 0", depth, c.name, allocs)
			}
		}
	}
}

// TestResolveDeepTree resolves damaged indexes of a MaxDepth tree, whose
// 4^15 leaves no scan could visit in a test.
func TestResolveDeepTree(t *testing.T) {
	tr := MustNew(MaxDepth, 99)
	r := rng.New(15)
	for trial := 0; trial < 2000; trial++ {
		edits := 1 + trial%2
		idx, _ := tr.Encode(r.Intn(tr.Leaves()))
		q := mutate(idx, edits, r)
		leaf, dist, ok := tr.Resolve(q, 2)
		if !ok {
			t.Fatalf("%v with %d edits (%v) unresolved", idx, edits, q)
		}
		if dist > edits {
			t.Fatalf("%v with %d edits: distance %d", q, edits, dist)
		}
		got, _ := tr.Encode(leaf)
		if d := editDistance(got, q); d != dist {
			t.Fatalf("%v resolved to leaf %d at distance %d, but its index %v is %d away", q, leaf, dist, got, d)
		}
	}
}

func BenchmarkResolve(b *testing.B) {
	for _, depth := range []int{3, 5, 9} {
		tr := MustNew(depth, 1)
		idx, _ := tr.Encode(tr.Leaves() / 3)
		damaged := idx.Clone()
		damaged[1] = damaged[0]
		b.Run(fmt.Sprintf("damaged/depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := tr.Resolve(damaged, 2); !ok {
					b.Fatal("unresolved")
				}
			}
		})
	}
}
