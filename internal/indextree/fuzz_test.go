package indextree

import (
	"errors"
	"testing"

	"dnastore/internal/dna"
)

// FuzzTreeDecode decodes arbitrary sequences, out-of-alphabet bytes
// included, against sparse, sparse-random and dense trees of several
// depths (one of them deeper than the cached levels). Decode must never
// panic and must fail only with ErrInvalidIndex. Every success must
// round-trip: the leaf is in range and Encode(leaf) is the input.
func FuzzTreeDecode(f *testing.F) {
	var trees []*Tree
	for _, v := range []Variant{Sparse, SparseRandom, Dense} {
		for _, depth := range []int{1, 3, 5, cacheLevels + 1} {
			tr, err := NewVariant(depth, 17, v)
			if err != nil {
				f.Fatal(err)
			}
			trees = append(trees, tr)
		}
	}
	for i, tr := range trees {
		idx, err := tr.Encode(tr.Leaves() / 3)
		if err != nil {
			f.Fatal(err)
		}
		raw := make([]byte, len(idx))
		for j, b := range idx {
			raw[j] = byte(b)
		}
		f.Add(raw, uint8(i), false)
		f.Add(raw[:len(raw)-1], uint8(i), false)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), false)
	f.Add([]byte{0xff, 0x80, 7, 3}, uint8(5), true)
	f.Fuzz(func(t *testing.T, raw []byte, which uint8, bases bool) {
		tr := trees[int(which)%len(trees)]
		seq := make(dna.Seq, len(raw))
		for i, b := range raw {
			if bases {
				b &= 3
			}
			seq[i] = dna.Base(b)
		}
		leaf, err := tr.Decode(seq)
		if err != nil {
			if !errors.Is(err, ErrInvalidIndex) {
				t.Fatalf("%v tree depth %d: untyped error %v", tr.Variant(), tr.Depth(), err)
			}
			return
		}
		if leaf < 0 || leaf >= tr.Leaves() {
			t.Fatalf("%v tree depth %d: decoded leaf %d outside [0, %d)", tr.Variant(), tr.Depth(), leaf, tr.Leaves())
		}
		back, err := tr.Encode(leaf)
		if err != nil {
			t.Fatalf("%v tree depth %d: Encode(%d): %v", tr.Variant(), tr.Depth(), leaf, err)
		}
		if !back.Equal(seq) {
			t.Fatalf("%v tree depth %d: %v decoded to leaf %d, which encodes to %v", tr.Variant(), tr.Depth(), seq, leaf, back)
		}
	})
}

// FuzzResolve resolves arbitrary sequences, out-of-alphabet bytes
// included, against every variant at depths 1-6 and one past the cached
// levels, with maxDist 0-3. Resolve must never panic. On queries of
// bases it must return exactly what the leaf scan returns; on any other
// query a resolved leaf must lie within maxDist, at the distance
// reported.
func FuzzResolve(f *testing.F) {
	trees := resolveTrees(f)
	for i, tr := range trees {
		idx, err := tr.Encode(tr.Leaves() / 3)
		if err != nil {
			f.Fatal(err)
		}
		raw := make([]byte, len(idx))
		for j, b := range idx {
			raw[j] = byte(b)
		}
		f.Add(raw, uint8(i), uint8(2), true)
		f.Add(raw[:len(raw)-1], uint8(i), uint8(1), true)
		damaged := append([]byte(nil), raw...)
		damaged[0] ^= 1
		f.Add(damaged, uint8(i), uint8(3), true)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(4), uint8(3), false)
	f.Add([]byte{}, uint8(0), uint8(2), true)
	f.Fuzz(func(t *testing.T, raw []byte, which, maxDist uint8, bases bool) {
		tr := trees[int(which)%len(trees)]
		k := int(maxDist % 4)
		seq := make(dna.Seq, len(raw))
		inAlphabet := true
		for i, b := range raw {
			if bases {
				b &= 3
			}
			seq[i] = dna.Base(b)
			inAlphabet = inAlphabet && b < 4
		}
		leaf, dist, ok := tr.Resolve(seq, k)
		if inAlphabet {
			wl, wd, wok := nearestLeafScan(tr, seq, k)
			if ok != wok || leaf != wl || dist != wd {
				t.Fatalf("%v tree depth %d maxDist %d, %v: Resolve = (%d, %d, %v), scan = (%d, %d, %v)",
					tr.Variant(), tr.Depth(), k, seq, leaf, dist, ok, wl, wd, wok)
			}
			return
		}
		if !ok {
			return
		}
		idx, err := tr.Encode(leaf)
		if err != nil {
			t.Fatalf("%v tree depth %d: resolved leaf %d: %v", tr.Variant(), tr.Depth(), leaf, err)
		}
		if d := editDistance(idx, seq); d != dist || dist > k {
			t.Fatalf("%v tree depth %d maxDist %d: %v resolved to leaf %d at distance %d, but it is %d away",
				tr.Variant(), tr.Depth(), k, seq, leaf, dist, d)
		}
	})
}
