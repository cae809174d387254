package experiment

import (
	"errors"
	"testing"

	"dnastore/internal/indextree"
	"dnastore/internal/rng"
)

func TestAllocatorValidation(t *testing.T) {
	if _, err := NewAllocator(0); err == nil {
		t.Error("depth 0 accepted")
	}
	a, err := NewAllocator(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Alloc(0); err == nil {
		t.Error("zero-block allocation accepted")
	}
	if _, _, err := a.Alloc(257); err == nil {
		t.Error("over-capacity allocation accepted")
	}
	if err := a.Free(5); err == nil {
		t.Error("free of unallocated extent accepted")
	}
}

func TestAllocAlignment(t *testing.T) {
	a, _ := NewAllocator(5) // 1024 blocks
	for _, n := range []int{1, 3, 4, 5, 16, 17, 64} {
		lo, hi, err := a.Alloc(n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", n, err)
		}
		if hi-lo+1 != n {
			t.Fatalf("Alloc(%d): extent [%d,%d]", n, lo, hi)
		}
		// The start must be aligned to the covering subtree size.
		size := 1
		for size < n {
			size *= 4
		}
		if lo%size != 0 {
			t.Errorf("Alloc(%d): start %d not aligned to %d", n, lo, size)
		}
	}
}

func TestAlignedFilesNeedOnePrefix(t *testing.T) {
	// The point of the allocator: a whole-file read is a single PCR.
	a, _ := NewAllocator(5)
	tree := indextree.MustNew(5, 42)
	for _, n := range []int{4, 16, 64, 256} {
		lo, _, err := a.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		// The aligned subtree covering the file is one prefix; reading
		// the subtree retrieves the file (plus its reserved slack).
		size := 1
		for size < n {
			size *= 4
		}
		covers, err := tree.Cover(lo, lo+size-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(covers) != 1 {
			t.Errorf("file of %d blocks: %d prefixes, want 1", n, len(covers))
		}
	}
}

func TestSequentialPackingNeedsMorePrefixes(t *testing.T) {
	// Ablation: packing the same files back-to-back (what a naive
	// sequential writer does) straddles subtree boundaries.
	tree := indextree.MustNew(5, 42)
	sizes := []int{5, 16, 9, 64, 3}
	naiveCovers, alignedCovers := 0, 0
	// Naive: sequential starts.
	next := 0
	for _, n := range sizes {
		covers, err := tree.Cover(next, next+n-1)
		if err != nil {
			t.Fatal(err)
		}
		naiveCovers += len(covers)
		next += n
	}
	// Aligned.
	a, _ := NewAllocator(5)
	for _, n := range sizes {
		lo, hi, err := a.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		covers, err := tree.Cover(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		_ = hi
		alignedCovers += len(covers)
	}
	if alignedCovers >= naiveCovers {
		t.Errorf("aligned packing uses %d prefixes vs naive %d; alignment should win",
			alignedCovers, naiveCovers)
	}
}

func TestFreeAndMerge(t *testing.T) {
	a, _ := NewAllocator(3) // 64 blocks
	if a.FreeBlocks() != 64 {
		t.Fatalf("fresh allocator free %d", a.FreeBlocks())
	}
	var starts []int
	for i := 0; i < 4; i++ {
		lo, _, err := a.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, lo)
	}
	if a.FreeBlocks() != 0 {
		t.Fatalf("free blocks %d after filling", a.FreeBlocks())
	}
	if _, _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("exhausted allocator: %v", err)
	}
	for _, lo := range starts {
		if err := a.Free(lo); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeBlocks() != 64 {
		t.Fatalf("free blocks %d after freeing all", a.FreeBlocks())
	}
	// After full merge, a full-partition allocation must succeed again.
	if _, _, err := a.Alloc(64); err != nil {
		t.Errorf("merge failed: %v", err)
	}
}

func TestAllocatorRandomizedModel(t *testing.T) {
	// Property: against a reference model, extents never overlap and
	// free-block accounting stays exact.
	r := rng.New(11)
	a, _ := NewAllocator(4) // 256 blocks
	type extent struct{ lo, reserved int }
	live := map[int]extent{}
	reservedTotal := 0
	for step := 0; step < 2000; step++ {
		if r.Float64() < 0.6 {
			n := 1 + r.Intn(32)
			lo, hi, err := a.Alloc(n)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			size := 1
			for size < n {
				size *= 4
			}
			// No overlap with any live extent (compare reserved ranges).
			for _, e := range live {
				if lo < e.lo+e.reserved && e.lo < lo+size {
					t.Fatalf("step %d: overlap [%d,%d) with [%d,%d)",
						step, lo, lo+size, e.lo, e.lo+e.reserved)
				}
			}
			_ = hi
			live[lo] = extent{lo, size}
			reservedTotal += size
		} else if len(live) > 0 {
			// Free a random live extent.
			var keys []int
			for k := range live {
				keys = append(keys, k)
			}
			k := keys[r.Intn(len(keys))]
			if err := a.Free(k); err != nil {
				t.Fatal(err)
			}
			reservedTotal -= live[k].reserved
			delete(live, k)
		}
		if got := a.FreeBlocks(); got != 256-reservedTotal {
			t.Fatalf("step %d: free %d want %d", step, got, 256-reservedTotal)
		}
	}
}

func TestExtents(t *testing.T) {
	a, _ := NewAllocator(3)
	lo1, _, _ := a.Alloc(4)
	lo2, _, _ := a.Alloc(4)
	got := a.Extents()
	if len(got) != 2 || got[0] != lo1 || got[1] != lo2 {
		t.Errorf("extents %v", got)
	}
}
