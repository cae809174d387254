package experiment

import (
	"fmt"
	"io"

	"dnastore/internal/indextree"
)

// RelatedResult reproduces the Section 9 quantitative comparison between
// primer elongation and nested primers [37].
type RelatedResult struct {
	// Per-strand base overhead of one hierarchy level.
	ElongationExtraBases int // 5 sparsity bases (paper: "we need 5 extra bases")
	NestedExtraBases     int // 20 bases for an extra primer

	// Addresses produced by a 10-base extension vs one nesting level.
	ElongationAddresses int // 2^10 = 1024
	NestedLevelBases    int

	// A six-level hierarchy: our 5 added bases vs six front primers.
	HierarchyLevels        int
	NestedHierarchyBases   int     // 6 x 20
	NestedDensityLossRatio float64 // >= 10x in the paper's 150-base setup
}

// Related computes the Section 9 table.
func Related() RelatedResult {
	const strand = 150
	res := RelatedResult{
		ElongationExtraBases: 5,
		NestedExtraBases:     20,
		ElongationAddresses:  1024,
		NestedLevelBases:     20,
		HierarchyLevels:      6,
		NestedHierarchyBases: 6 * 20,
	}
	// Payload with our sparse index (Section 6.2 geometry): 96 bases.
	ours := 96.0
	// Payload if six nested front primers replaced the index hierarchy:
	// 150 - rev primer 20 - sync 1 - 6x20 front primers - matrix index 2.
	nested := float64(strand - 20 - 1 - res.NestedHierarchyBases - 2)
	if nested < 1 {
		nested = 1 // the layout does not even fit; clamp for the ratio
	}
	res.NestedDensityLossRatio = ours / nested
	return res
}

// PrintRelated writes the Section 9 comparison.
func PrintRelated(out io.Writer, r RelatedResult) {
	fmt.Fprintln(out, "Related-work comparison (Section 9): elongation vs nested primers")
	fmt.Fprintf(out, "  per-level overhead: %d bases (sparse index) vs %d bases (nested primer) -> 4x\n",
		r.ElongationExtraBases, r.NestedExtraBases)
	fmt.Fprintf(out, "  10-base elongation: %d block addresses; one nesting level costs %d bases\n",
		r.ElongationAddresses, r.NestedLevelBases)
	fmt.Fprintf(out, "  %d-level hierarchy: 5 added bases vs %d bases of nested primers -> %.0fx density gap (paper: >=10x)\n",
		r.HierarchyLevels, r.NestedHierarchyBases, r.NestedDensityLossRatio)
	fmt.Fprintln(out, "  (nested primers keep arbitrary object sizes; elongation fixes block size — Section 9's trade-off)")
}

// AllocResult evaluates the Section 3.1 future-work optimization this
// library implements: mapping files to subtree-aligned extents so that
// whole-file sequential reads need fewer elongated primers (PCRs).
type AllocResult struct {
	FileBlocks      []int
	NaivePrefixes   int // sequential back-to-back packing
	AlignedPrefixes int // buddy-aligned extents
}

// Alloc compares prefix counts for a mixed file workload.
func Alloc() (*AllocResult, error) {
	tree, err := indextree.New(5, 4242)
	if err != nil {
		return nil, err
	}
	sizes := []int{5, 16, 9, 64, 3, 32, 7, 128, 2, 21}
	res := &AllocResult{FileBlocks: sizes}
	next := 0
	for _, n := range sizes {
		covers, err := tree.Cover(next, next+n-1)
		if err != nil {
			return nil, err
		}
		res.NaivePrefixes += len(covers)
		next += n
	}
	a, err := NewAllocator(5)
	if err != nil {
		return nil, err
	}
	for _, n := range sizes {
		lo, hi, err := a.Alloc(n)
		if err != nil {
			return nil, err
		}
		covers, err := tree.Cover(lo, hi)
		if err != nil {
			return nil, err
		}
		res.AlignedPrefixes += len(covers)
	}
	return res, nil
}

// PrintAlloc writes the allocation study.
func PrintAlloc(out io.Writer, r *AllocResult) {
	fmt.Fprintf(out, "Prefix-aligned file placement (Section 3.1 future work; %d files)\n",
		len(r.FileBlocks))
	fmt.Fprintf(out, "  sequential packing: %d elongated primers (PCRs) for whole-file reads\n",
		r.NaivePrefixes)
	fmt.Fprintf(out, "  subtree-aligned:    %d elongated primers\n", r.AlignedPrefixes)
	fmt.Fprintf(out, "  reduction: %.1fx\n", float64(r.NaivePrefixes)/float64(r.AlignedPrefixes))
}
