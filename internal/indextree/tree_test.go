package indextree

import (
	"errors"
	"testing"
	"testing/quick"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func TestNewValidation(t *testing.T) {
	for _, depth := range []int{0, -1, MaxDepth + 1} {
		if _, err := New(depth, 1); err == nil {
			t.Errorf("depth %d accepted", depth)
		}
	}
	if _, err := NewVariant(3, 1, Variant(99)); err == nil {
		t.Error("unknown variant accepted")
	}
	tr, err := New(5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaves() != 1024 || tr.IndexLen() != 10 || tr.Depth() != 5 {
		t.Errorf("depth-5 tree: leaves=%d indexLen=%d", tr.Leaves(), tr.IndexLen())
	}
	if tr.Seed() != 42 || tr.Variant() != Sparse {
		t.Error("accessors wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0, ...) should panic")
		}
	}()
	MustNew(0, 1)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, v := range []Variant{Sparse, SparseRandom, Dense} {
		tr, err := NewVariant(5, 12345, v)
		if err != nil {
			t.Fatal(err)
		}
		for leaf := 0; leaf < tr.Leaves(); leaf++ {
			idx, err := tr.Encode(leaf)
			if err != nil {
				t.Fatalf("%v: Encode(%d): %v", v, leaf, err)
			}
			if len(idx) != tr.IndexLen() {
				t.Fatalf("%v: index length %d want %d", v, len(idx), tr.IndexLen())
			}
			back, err := tr.Decode(idx)
			if err != nil {
				t.Fatalf("%v: Decode(%v): %v", v, idx, err)
			}
			if back != leaf {
				t.Fatalf("%v: round trip %d -> %d", v, leaf, back)
			}
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	tr := MustNew(3, 1)
	if _, err := tr.Encode(-1); err == nil {
		t.Error("negative leaf accepted")
	}
	if _, err := tr.Encode(tr.Leaves()); err == nil {
		t.Error("leaf == Leaves() accepted")
	}
}

func TestIndexesAreUnique(t *testing.T) {
	tr := MustNew(5, 99)
	seen := make(map[string]int, tr.Leaves())
	for leaf := 0; leaf < tr.Leaves(); leaf++ {
		idx, _ := tr.Encode(leaf)
		if prev, dup := seen[idx.String()]; dup {
			t.Fatalf("index collision between leaves %d and %d", prev, leaf)
		}
		seen[idx.String()] = leaf
	}
}

func TestGCBalanceInEveryPrefix(t *testing.T) {
	// Section 4.3: "near-perfect GC content in every part of any index
	// regardless of its length". Every even-length prefix of every index
	// must have exactly 50% GC.
	tr := MustNew(5, 7)
	for leaf := 0; leaf < tr.Leaves(); leaf++ {
		idx, _ := tr.Encode(leaf)
		for p := 2; p <= len(idx); p += 2 {
			if got := idx[:p].GCCount(); got != p/2 {
				t.Fatalf("leaf %d prefix %d: GC count %d want %d (index %v)",
					leaf, p, got, p/2, idx)
			}
		}
	}
}

func TestNoLongHomopolymers(t *testing.T) {
	// Section 4.3: the scheme "disables sequences of homopolymers longer
	// than two".
	tr := MustNew(6, 3)
	for leaf := 0; leaf < tr.Leaves(); leaf += 7 {
		idx, _ := tr.Encode(leaf)
		if hp := idx.MaxHomopolymer(); hp > 2 {
			t.Fatalf("leaf %d: homopolymer run %d in %v", leaf, hp, idx)
		}
	}
}

func TestSiblingDistanceAtLeastTwo(t *testing.T) {
	// Section 4.3: the assignment maximizes Hamming distance between
	// siblings; with distinct spacers per GC class every pair of sibling
	// edge labels differs in both positions.
	tr := MustNew(5, 11)
	ids := []uint64{rootID}
	for level := 0; level < 4; level++ {
		var next []uint64
		for _, id := range ids {
			p := tr.node(id)
			labels := make([]dna.Seq, 4)
			for rank := 0; rank < 4; rank++ {
				labels[rank] = dna.Seq{p.edge[rank], p.spacer[rank]}
				next = append(next, childID(id, rank))
			}
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					if d := dna.Hamming(labels[i], labels[j]); d < 2 {
						t.Fatalf("node %d: sibling labels %v %v distance %d",
							id, labels[i], labels[j], d)
					}
				}
			}
		}
		ids = next
		if len(ids) > 256 {
			ids = ids[:256] // sample deeper levels
		}
	}
}

func TestSpacersOppositeGCClass(t *testing.T) {
	for _, v := range []Variant{Sparse, SparseRandom} {
		tr, _ := NewVariant(4, 17, v)
		for leaf := 0; leaf < tr.Leaves(); leaf += 3 {
			idx, _ := tr.Encode(leaf)
			for i := 0; i < len(idx); i += 2 {
				if idx[i].IsGC() == idx[i+1].IsGC() {
					t.Fatalf("%v leaf %d: edge %v and spacer %v share GC class",
						v, leaf, idx[i], idx[i+1])
				}
			}
		}
	}
}

func TestAveragePairwiseDistanceDoubles(t *testing.T) {
	// Section 4.3: "it also increases the average Hamming distance between
	// two indexes of the same length by at least 2x" relative to the dense
	// scheme. Sample pairs from depth-5 trees.
	sparse := MustNew(5, 23)
	dense, _ := NewVariant(5, 23, Dense)
	r := rng.New(5)
	const pairs = 4000
	var sumSparse, sumDense float64
	for i := 0; i < pairs; i++ {
		a, b := r.Intn(1024), r.Intn(1024)
		if a == b {
			continue
		}
		ia, _ := sparse.Encode(a)
		ib, _ := sparse.Encode(b)
		sumSparse += float64(dna.Hamming(ia, ib))
		da, _ := dense.Encode(a)
		db, _ := dense.Encode(b)
		sumDense += float64(dna.Hamming(da, db))
	}
	if sumSparse < 1.9*sumDense {
		t.Errorf("sparse avg distance %.2f not ~2x dense %.2f",
			sumSparse/pairs, sumDense/pairs)
	}
}

func TestSeedReconstruction(t *testing.T) {
	// Section 4.4: the tree is fully reconstructible from its seed.
	a := MustNew(5, 1234)
	b := MustNew(5, 1234)
	for leaf := 0; leaf < 1024; leaf += 13 {
		ia, _ := a.Encode(leaf)
		ib, _ := b.Encode(leaf)
		if !ia.Equal(ib) {
			t.Fatalf("same seed, different index for leaf %d", leaf)
		}
	}
}

func TestDifferentSeedsDifferentTrees(t *testing.T) {
	// Section 4.4: different partitions use different seeds "to ensure
	// that different partitions have vastly different trees".
	a := MustNew(5, 1)
	b := MustNew(5, 2)
	same := 0
	for leaf := 0; leaf < 1024; leaf++ {
		ia, _ := a.Encode(leaf)
		ib, _ := b.Encode(leaf)
		if ia.Equal(ib) {
			same++
		}
	}
	if same > 20 {
		t.Errorf("%d of 1024 indexes identical across seeds", same)
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	tr := MustNew(3, 5)
	if _, err := tr.Decode(dna.MustFromString("ACGT")); !errors.Is(err, ErrInvalidIndex) {
		t.Errorf("wrong length: %v", err)
	}
	// Corrupt a valid index's spacer: flip it to the same GC class value
	// that cannot be a spacer for that edge.
	idx, _ := tr.Encode(0)
	bad := idx.Clone()
	bad[1] = bad[0] // spacer equal to edge letter is always invalid
	if _, err := tr.Decode(bad); !errors.Is(err, ErrInvalidIndex) {
		t.Errorf("bad spacer: %v", err)
	}
}

func TestPrefix(t *testing.T) {
	tr := MustNew(5, 9)
	leaf := 531
	full, _ := tr.Encode(leaf)
	for levels := 1; levels <= 5; levels++ {
		p, err := tr.Prefix(leaf, levels)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != 2*levels {
			t.Fatalf("prefix levels %d: length %d", levels, len(p))
		}
		if !full.HasPrefix(p) {
			t.Fatalf("prefix %v not a prefix of %v", p, full)
		}
	}
	if _, err := tr.Prefix(leaf, 0); err == nil {
		t.Error("levels=0 accepted")
	}
	if _, err := tr.Prefix(leaf, 6); err == nil {
		t.Error("levels>depth accepted")
	}
}

func TestPrefixSharedBySubtree(t *testing.T) {
	// All leaves in the same level-2 subtree share the level-2 prefix;
	// leaves outside do not.
	tr := MustNew(4, 13)
	p, _ := tr.Prefix(64, 2) // leaves 64..79 share this level-2 subtree... (4^2=16 leaves per level-2 subtree)
	lo, hi := 64, 79
	for leaf := 0; leaf < tr.Leaves(); leaf++ {
		idx, _ := tr.Encode(leaf)
		in := idx.HasPrefix(p)
		want := leaf >= lo && leaf <= hi
		if in != want {
			t.Fatalf("leaf %d: prefix membership %v want %v", leaf, in, want)
		}
	}
}

func TestCoverExactness(t *testing.T) {
	tr := MustNew(4, 21)
	r := rng.New(8)
	for trial := 0; trial < 100; trial++ {
		lo := r.Intn(tr.Leaves())
		hi := lo + r.Intn(tr.Leaves()-lo)
		covers, err := tr.Cover(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		// Covered intervals must tile [lo, hi] exactly, in order.
		next := lo
		for _, c := range covers {
			if c.Lo != next {
				t.Fatalf("cover gap: expected interval start %d, got %d", next, c.Lo)
			}
			if c.Hi < c.Lo {
				t.Fatalf("inverted interval %+v", c)
			}
			next = c.Hi + 1
			// Every leaf in the interval must carry the prefix.
			for leaf := c.Lo; leaf <= c.Hi; leaf += 1 + (c.Hi-c.Lo)/3 {
				idx, _ := tr.Encode(leaf)
				if !idx.HasPrefix(c.Prefix) {
					t.Fatalf("leaf %d lacks cover prefix %v", leaf, c.Prefix)
				}
			}
		}
		if next != hi+1 {
			t.Fatalf("cover ends at %d want %d", next-1, hi)
		}
	}
}

func TestCoverMinimality(t *testing.T) {
	tr := MustNew(4, 3)
	// A full aligned subtree must be covered by exactly one prefix.
	covers, err := tr.Cover(0, 63) // one level-1 subtree of a depth-4 tree
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) != 1 {
		t.Fatalf("aligned subtree covered by %d prefixes, want 1", len(covers))
	}
	if len(covers[0].Prefix) != 2 {
		t.Fatalf("cover prefix %v, want level-1 (2 bases)", covers[0].Prefix)
	}
	// The worst-case range (1 .. leaves-2) needs at most 3*(depth) pieces
	// for a 4-ary tree and must never include all four children of a node.
	covers, err = tr.Cover(1, tr.Leaves()-2)
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) > 6*tr.Depth() {
		t.Fatalf("cover size %d too large", len(covers))
	}
	// Section 3.1's worked example: range AAA-AGT (leaves 0..11 of a
	// depth-3 space in logical terms) needs 3 prefixes: AA, AC, AG.
	tr3 := MustNew(3, 77)
	covers, err = tr3.Cover(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) != 3 {
		t.Fatalf("paper example range covered by %d prefixes, want 3", len(covers))
	}
	if _, err := tr.Cover(5, 4); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := tr.Cover(-1, 4); err == nil {
		t.Error("negative range accepted")
	}
}

func TestVariantString(t *testing.T) {
	if Sparse.String() != "sparse" || SparseRandom.String() != "sparse-random" ||
		Dense.String() != "dense" || Variant(9).String() == "" {
		t.Error("Variant.String broken")
	}
}

func TestQuickRoundTripDeepTree(t *testing.T) {
	tr := MustNew(8, 101) // 65536 leaves
	f := func(raw uint32) bool {
		leaf := int(raw) % tr.Leaves()
		idx, err := tr.Encode(leaf)
		if err != nil {
			return false
		}
		back, err := tr.Decode(idx)
		return err == nil && back == leaf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeDepth5(b *testing.B) {
	tr := MustNew(5, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Encode(i & 1023); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDepth5(b *testing.B) {
	tr := MustNew(5, 1)
	idx, _ := tr.Encode(531)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Decode(idx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCover(b *testing.B) {
	tr := MustNew(8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Cover(1000, 50000); err != nil {
			b.Fatal(err)
		}
	}
}
