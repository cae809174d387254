package experiment

import (
	"errors"
	"fmt"
	"sort"

	"dnastore/internal/indextree"
)

// ErrNoSpace is returned when an allocation cannot be satisfied.
var ErrNoSpace = errors.New("experiment: no aligned space left")

// Allocator places files onto subtree-aligned block extents, the
// Section 3.1 optimization the paper leaves as future work: "a set of
// files could be mapped onto the partition in a manner that tries to
// optimally align the files to nodes in the prefix tree". A file whose
// extent is one aligned subtree is retrievable with a single prefix —
// one PCR — regardless of its size.
//
// The allocator is a 4-ary buddy system: free extents are whole subtrees
// (order k spans 4^k blocks); allocations split larger subtrees and
// frees re-merge complete sibling quads.
type Allocator struct {
	depth int
	// free[k] holds the starting blocks of free order-k subtrees,
	// kept sorted for determinism and cheap buddy merging.
	free map[int][]int
	// allocated maps extent start -> order, for Free validation.
	allocated map[int]int
}

// NewAllocator creates an allocator over a partition of 4^depth blocks.
func NewAllocator(depth int) (*Allocator, error) {
	if depth < 1 || depth > indextree.MaxDepth {
		return nil, fmt.Errorf("experiment: allocator depth %d", depth)
	}
	a := &Allocator{
		depth:     depth,
		free:      make(map[int][]int),
		allocated: make(map[int]int),
	}
	a.free[depth] = []int{0} // the whole partition is one free subtree
	return a, nil
}

// orderFor returns the smallest subtree order holding n blocks.
func orderFor(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("experiment: allocation of %d blocks", n)
	}
	order := 0
	size := 1
	for size < n {
		size *= 4
		order++
	}
	return order, nil
}

// Alloc reserves an aligned subtree able to hold n blocks and returns
// the extent [lo, lo+n-1]. The whole subtree (4^order blocks) is
// reserved even when n is not a power of four, trading a little address
// space (which is effectively free, Section 3) for single-prefix
// retrieval.
func (a *Allocator) Alloc(n int) (lo, hi int, err error) {
	order, err := orderFor(n)
	if err != nil {
		return 0, 0, err
	}
	if order > a.depth {
		return 0, 0, fmt.Errorf("%w: %d blocks exceed the partition", ErrNoSpace, n)
	}
	// Find the smallest free order >= requested.
	k := order
	for k <= a.depth && len(a.free[k]) == 0 {
		k++
	}
	if k > a.depth {
		return 0, 0, ErrNoSpace
	}
	// Pop the lowest-addressed free subtree of order k.
	start := a.free[k][0]
	a.free[k] = a.free[k][1:]
	// Split down to the requested order, freeing the three upper
	// quarters at each level.
	for k > order {
		k--
		quarter := 1 << (2 * uint(k))
		for q := 3; q >= 1; q-- {
			a.pushFree(k, start+q*quarter)
		}
	}
	a.allocated[start] = order
	return start, start + n - 1, nil
}

// Free releases a previously allocated extent identified by its start.
func (a *Allocator) Free(lo int) error {
	order, ok := a.allocated[lo]
	if !ok {
		return fmt.Errorf("experiment: free of unallocated extent at %d", lo)
	}
	delete(a.allocated, lo)
	a.pushFree(order, lo)
	a.merge(order, lo)
	return nil
}

// pushFree inserts a start into the sorted free list of an order.
func (a *Allocator) pushFree(order, start int) {
	list := a.free[order]
	i := sort.SearchInts(list, start)
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = start
	a.free[order] = list
}

// merge coalesces complete sibling quads upward from the given order.
func (a *Allocator) merge(order, start int) {
	for order < a.depth {
		size := 1 << (2 * uint(order))
		parentStart := start - (start % (4 * size))
		// All four siblings must be free.
		list := a.free[order]
		idx := make([]int, 0, 4)
		for q := 0; q < 4; q++ {
			i := sort.SearchInts(list, parentStart+q*size)
			if i >= len(list) || list[i] != parentStart+q*size {
				return
			}
			idx = append(idx, i)
		}
		// Remove the quad (indexes are ascending) and push the parent.
		for j := 3; j >= 0; j-- {
			i := idx[j]
			list = append(list[:i], list[i+1:]...)
		}
		a.free[order] = list
		order++
		start = parentStart
		a.pushFree(order, parentStart)
	}
}

// FreeBlocks returns the total number of free blocks.
func (a *Allocator) FreeBlocks() int {
	total := 0
	for k, list := range a.free {
		total += len(list) << (2 * uint(k))
	}
	return total
}

// Extents returns the allocated extent starts in ascending order.
func (a *Allocator) Extents() []int {
	out := make([]int, 0, len(a.allocated))
	for lo := range a.allocated {
		out = append(out, lo)
	}
	sort.Ints(out)
	return out
}
