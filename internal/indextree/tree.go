// Package indextree implements the paper's primary contribution: the
// PCR-navigable index tree (Section 4) that turns the internal address
// space of a partition into a PCR-compatible indexing scheme.
//
// The address space of an index of depth d is a 4-ary prefix tree with
// 4^d leaves, one per block (Section 3.1). Three transformations make the
// indexes usable as extensions of a PCR primer (Section 4.3):
//
//  1. The order of the four edges out of every node is randomized, so
//     degenerate trees do not produce all-A prefixes.
//  2. A sparsity letter is inserted after every edge letter, chosen from
//     the opposite GC class, which balances GC content in every prefix of
//     every index and caps homopolymer runs at 2.
//  3. Sparsity letters are assigned to maximize the Hamming distance
//     between sibling subtrees, breaking ties randomly.
//
// The construction is entirely derived from a 64-bit seed, so the tree is
// never stored (Section 4.4): every node's parameters are recomputed on
// demand from the seed and the node's path.
package indextree

import (
	"errors"
	"fmt"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// ErrInvalidIndex is returned by Decode for sequences that are not valid
// indexes of the tree.
var ErrInvalidIndex = errors.New("indextree: not a valid index")

// Variant selects the indexing scheme, enabling the ablations that
// motivate the paper's design (Section 4.1 and our `tree` experiment).
type Variant int

const (
	// Sparse is the paper's scheme: randomized edges + GC-balancing
	// spacers assigned for maximum sibling distance. Index length 2d.
	Sparse Variant = iota
	// SparseRandom keeps the GC-balancing spacers but assigns them
	// randomly (ties and collisions allowed), isolating the benefit of
	// the max-distance assignment. Index length 2d.
	SparseRandom
	// Dense is the prior-work maximum-density scheme: base-4 digits of
	// the block number, no randomization, no spacers. Index length d.
	Dense
)

// String implements fmt.Stringer for Variant.
func (v Variant) String() string {
	switch v {
	case Sparse:
		return "sparse"
	case SparseRandom:
		return "sparse-random"
	case Dense:
		return "dense"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// MaxDepth bounds tree depth so that leaf counts fit in an int.
const MaxDepth = 15

// Tree is a PCR-navigable index tree of a fixed depth. The zero value is
// not usable; construct with New.
type Tree struct {
	depth   int
	seed    uint64
	variant Variant
	// nodes caches the parameters of every node in the top cacheLevels
	// levels, indexed directly by path id (level-l ids live in
	// [4^l, 2*4^l), so the table has unused gaps and no collisions).
	// It is built at construction and read-only afterwards, keeping
	// Tree safe for concurrent use.
	nodes []nodeParams
}

// cacheLevels bounds the eagerly cached tree levels; the default
// partition depth (5) and every hot experiment fit entirely, while
// pathological deep trees fall back to recomputation below the cache.
const cacheLevels = 6

// New constructs a tree of the given depth (blocks = 4^depth) for the
// paper's sparse scheme. The tree is a pure function of (depth, seed).
func New(depth int, seed uint64) (*Tree, error) {
	return NewVariant(depth, seed, Sparse)
}

// NewVariant constructs a tree with an explicit scheme variant.
func NewVariant(depth int, seed uint64, v Variant) (*Tree, error) {
	if depth < 1 || depth > MaxDepth {
		return nil, fmt.Errorf("indextree: depth %d outside [1, %d]", depth, MaxDepth)
	}
	if v != Sparse && v != SparseRandom && v != Dense {
		return nil, fmt.Errorf("indextree: unknown variant %d", int(v))
	}
	t := &Tree{depth: depth, seed: seed, variant: v}
	levels := depth
	if levels > cacheLevels {
		levels = cacheLevels
	}
	top := uint64(2) << (2 * uint(levels-1)) // one past the last level-(levels-1) id
	t.nodes = make([]nodeParams, top)
	for l := 0; l < levels; l++ {
		lo := uint64(1) << (2 * uint(l))
		for id := lo; id < 2*lo; id++ {
			t.nodes[id] = t.computeNode(id)
		}
	}
	return t, nil
}

// MustNew is New that panics on error, for known-good parameters.
func MustNew(depth int, seed uint64) *Tree {
	t, err := New(depth, seed)
	if err != nil {
		panic(err)
	}
	return t
}

// Depth returns the number of tree levels.
func (t *Tree) Depth() int { return t.depth }

// Seed returns the construction seed (the only persistent state).
func (t *Tree) Seed() uint64 { return t.seed }

// Variant returns the indexing scheme.
func (t *Tree) Variant() Variant { return t.variant }

// Leaves returns the number of addressable blocks, 4^depth.
func (t *Tree) Leaves() int { return 1 << (2 * uint(t.depth)) }

// IndexLen returns the length in bases of a full leaf index:
// 2*depth for sparse variants, depth for the dense baseline.
func (t *Tree) IndexLen() int {
	if t.variant == Dense {
		return t.depth
	}
	return 2 * t.depth
}

// nodeParams holds the randomized parameters of one internal node:
// the edge letter and the sparsity letter for each child rank.
type nodeParams struct {
	edge   [4]dna.Base
	spacer [4]dna.Base
}

// mix64 is a splitmix64-style finalizer for deriving node seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// node returns the parameters of the internal node identified by its
// path, from the cached table when the node is in the top levels.
func (t *Tree) node(pathID uint64) nodeParams {
	if pathID < uint64(len(t.nodes)) {
		return t.nodes[pathID]
	}
	return t.computeNode(pathID)
}

// computeNode derives the parameters of one node from the tree seed.
// The path is encoded as base-4 digits with a leading 1 marker so that
// distinct paths of different lengths have distinct ids. The derivation
// allocates nothing and draws exactly the stream the seeded
// construction has always drawn, so cached and recomputed trees are
// identical.
func (t *Tree) computeNode(pathID uint64) nodeParams {
	r := rng.NewState(mix64(t.seed ^ mix64(pathID)))
	var p nodeParams
	// Fisher-Yates with the same draw sequence as rng.Perm(4).
	perm := [4]int{0, 1, 2, 3}
	for i := 3; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for rank := 0; rank < 4; rank++ {
		p.edge[rank] = dna.Base(perm[rank])
	}
	// Partition child ranks by the GC class of their edge letter; a
	// permutation of ACGT always yields two ranks per class.
	var at, gc [4]int
	nat, ngc := 0, 0
	for rank := 0; rank < 4; rank++ {
		if p.edge[rank].IsGC() {
			gc[ngc] = rank
			ngc++
		} else {
			at[nat] = rank
			nat++
		}
	}
	switch t.variant {
	case Sparse:
		// Max-distance assignment: the two A/T children receive C and G
		// in random order, the two G/C children receive A and T in random
		// order, guaranteeing sibling Hamming distance >= 2.
		cg := [2]dna.Base{dna.C, dna.G}
		ta := [2]dna.Base{dna.A, dna.T}
		if r.Bool() {
			cg[0], cg[1] = cg[1], cg[0]
		}
		if r.Bool() {
			ta[0], ta[1] = ta[1], ta[0]
		}
		p.spacer[at[0]], p.spacer[at[1]] = cg[0], cg[1]
		p.spacer[gc[0]], p.spacer[gc[1]] = ta[0], ta[1]
	case SparseRandom:
		// Ablation: independently random opposite-class spacer per child;
		// siblings may collide in the spacer position.
		for rank := 0; rank < 4; rank++ {
			if p.edge[rank].IsGC() {
				p.spacer[rank] = [2]dna.Base{dna.A, dna.T}[r.Intn(2)]
			} else {
				p.spacer[rank] = [2]dna.Base{dna.C, dna.G}[r.Intn(2)]
			}
		}
	case Dense:
		// Dense trees have fixed edge order and no spacers.
		for rank := 0; rank < 4; rank++ {
			p.edge[rank] = dna.Base(rank)
		}
	}
	return p
}

// childID extends a path id with one more base-4 digit.
func childID(pathID uint64, rank int) uint64 { return pathID<<2 | uint64(rank) }

// rootID is the path id of the root (just the length marker).
const rootID uint64 = 1

// Encode returns the DNA index of the given leaf (block number).
func (t *Tree) Encode(leaf int) (dna.Seq, error) {
	if leaf < 0 || leaf >= t.Leaves() {
		return nil, fmt.Errorf("indextree: leaf %d outside [0, %d)", leaf, t.Leaves())
	}
	out := make(dna.Seq, 0, t.IndexLen())
	id := rootID
	for level := t.depth - 1; level >= 0; level-- {
		rank := (leaf >> (2 * uint(level))) & 3
		p := t.node(id)
		out = append(out, p.edge[rank])
		if t.variant != Dense {
			out = append(out, p.spacer[rank])
		}
		id = childID(id, rank)
	}
	return out, nil
}

// Prefix returns the index prefix identifying the subtree that contains
// leaf at the given level (0 < levels <= depth): the first 2*levels bases
// of the leaf's full index (levels bases for the dense variant). Partial
// prefixes drive PCR with partially elongated primers for sequential
// access (Figure 4).
func (t *Tree) Prefix(leaf, levels int) (dna.Seq, error) {
	if levels < 1 || levels > t.depth {
		return nil, fmt.Errorf("indextree: levels %d outside [1, %d]", levels, t.depth)
	}
	full, err := t.Encode(leaf)
	if err != nil {
		return nil, err
	}
	return full[:levels*t.basesPerLevel()], nil
}

// Decode maps a full DNA index back to its leaf number, validating both
// the edge letters and the sparsity letters. It returns ErrInvalidIndex
// for sequences that are not produced by Encode.
func (t *Tree) Decode(seq dna.Seq) (int, error) {
	leaf, level, id, ok := t.walk(seq)
	if ok {
		return leaf, nil
	}
	if level < 0 {
		return 0, fmt.Errorf("%w: length %d, want %d", ErrInvalidIndex, len(seq), t.IndexLen())
	}
	p := t.node(id)
	pos := level * t.basesPerLevel()
	edge := seq[pos]
	rank := p.rank(edge)
	if rank < 0 {
		return 0, fmt.Errorf("%w: no edge %v at level %d", ErrInvalidIndex, edge, level)
	}
	return 0, fmt.Errorf("%w: spacer %v at level %d, want %v",
		ErrInvalidIndex, seq[pos+1], level, p.spacer[rank])
}

// basesPerLevel is the number of index bases each tree level appends:
// the edge letter, plus the sparsity letter in the sparse variants.
func (t *Tree) basesPerLevel() int {
	if t.variant == Dense {
		return 1
	}
	return 2
}

// rank returns the child rank whose edge letter is edge, or -1.
func (p *nodeParams) rank(edge dna.Base) int {
	for rk := 0; rk < 4; rk++ {
		if p.edge[rk] == edge {
			return rk
		}
	}
	return -1
}

// walk follows seq strictly down the tree, one edge letter (and
// sparsity letter) per level, without allocating. For a valid full
// index it returns the leaf and ok. Otherwise level is the level whose
// letters failed to match, at the node id, or -1 when seq has the wrong
// length.
func (t *Tree) walk(seq dna.Seq) (leaf, level int, id uint64, ok bool) {
	if len(seq) != t.IndexLen() {
		return 0, -1, 0, false
	}
	per := t.basesPerLevel()
	id = rootID
	for level = 0; level < t.depth; level++ {
		p := t.node(id)
		pos := level * per
		rank := p.rank(seq[pos])
		if rank < 0 || (per == 2 && seq[pos+1] != p.spacer[rank]) {
			return 0, level, id, false
		}
		leaf = leaf<<2 | rank
		id = childID(id, rank)
	}
	return leaf, 0, 0, true
}

// Resolve maps a possibly damaged index to the leaf whose index is
// nearest to seq in edit distance, provided that distance is at most
// maxDist; ties go to the lowest leaf. A valid index resolves by the
// strict walk Decode uses. Any other sequence walks the tree depth-first
// in rank order, so leaves are visited in ascending order, carrying one
// Levenshtein DP row per appended index base (edge letter, then
// sparsity letter). A subtree is pruned as soon as its row rules out a
// leaf closer than the best one found, which is why the first leaf at
// the least distance is the one kept. Resolve allocates nothing for
// queries up to twice the index length and is safe for concurrent use.
func (t *Tree) Resolve(seq dna.Seq, maxDist int) (leaf, dist int, ok bool) {
	if maxDist < 0 {
		return 0, 0, false
	}
	if leaf, _, _, ok := t.walk(seq); ok {
		return leaf, 0, true
	}
	// Every leaf index is at least the length difference away, and
	// none is exact once the strict walk has failed.
	n := t.IndexLen()
	lower := max(len(seq)-n, n-len(seq), 1)
	if lower > maxDist {
		return 0, 0, false
	}
	return t.search(seq, maxDist, lower)
}

// searchCells sizes search's stack-held DP table: one row per index
// prefix length of the deepest tree, each row wide enough for a query
// of twice the longest index.
const searchCells = (2*MaxDepth + 1) * (4*MaxDepth + 1)

// search is Resolve's pruned depth-first walk. Row j of the DP table
// holds the edit distances between the first j bases of the current
// path's index and every prefix of seq. The walk stops early once a
// leaf reaches lower, the least distance any leaf can have.
func (t *Tree) search(seq dna.Seq, maxDist, lower int) (leaf, dist int, ok bool) {
	n, cols := t.IndexLen(), len(seq)+1
	var buf [searchCells]int32
	cells := buf[:]
	if need := (n + 1) * cols; need > len(buf) {
		cells = make([]int32, need)
	}
	for i := 0; i < cols; i++ {
		cells[i] = int32(i)
	}
	row := func(j int) []int32 { return cells[j*cols : (j+1)*cols] }
	per := t.basesPerLevel()
	last := t.depth - 1
	var nodes [MaxDepth]nodeParams
	var ids [MaxDepth]uint64
	var next [MaxDepth]int // next child rank to visit at each level
	nodes[0], ids[0] = t.node(rootID), rootID
	best, bestLeaf := int32(maxDist+1), -1
	for level := 0; level >= 0; {
		rank := next[level]
		if rank == 4 {
			level--
			continue
		}
		next[level]++
		p := &nodes[level]
		j := level*per + 1 // the row the edge letter fills
		low := extendRow(row(j-1), row(j), seq, p.edge[rank], n-j)
		if per == 2 && low < best {
			j++
			low = extendRow(row(j-1), row(j), seq, p.spacer[rank], n-j)
		}
		if low >= best {
			continue
		}
		if level < last {
			level++
			ids[level] = childID(ids[level-1], rank)
			nodes[level], next[level] = t.node(ids[level]), 0
			continue
		}
		// On a leaf's last row the bound is the leaf's distance itself.
		best, bestLeaf = low, 0
		for l := 0; l <= last; l++ {
			bestLeaf = bestLeaf<<2 | (next[l] - 1)
		}
		if int(best) <= lower {
			break
		}
	}
	if bestLeaf < 0 {
		return 0, 0, false
	}
	return bestLeaf, int(best), true
}

// extendRow fills cur, the DP row for an index prefix one base b longer
// than prev's, and returns a lower bound on the distance from seq to any
// full index extending that prefix, which has rest bases still to come:
// the least over cur's cells of the cell's distance plus the length
// difference between the two remainders it leaves.
func extendRow(prev, cur []int32, seq dna.Seq, b dna.Base, rest int) int32 {
	r := int32(rest)
	m := int32(len(seq))
	cur[0] = prev[0] + 1
	low := cur[0] + max(r-m, m-r)
	for i := 1; i < len(cur); i++ {
		d := min(prev[i]+1, cur[i-1]+1, prev[i-1]+1)
		if seq[i-1] == b {
			d = min(d, prev[i-1])
		}
		cur[i] = d
		left := m - int32(i)
		low = min(low, d+max(r-left, left-r))
	}
	return low
}

// CoverRange is one element of a range cover: a subtree prefix and the
// leaf interval it spans.
type CoverRange struct {
	Prefix dna.Seq
	Lo, Hi int // inclusive leaf range covered by Prefix
}

// Cover returns the minimal set of subtree prefixes that exactly covers
// the leaf range [lo, hi] (inclusive). This is the paper's observation
// that "any contiguous index-range can be precisely described with a few
// prefixes" (Section 3.1); each prefix becomes one elongated primer in a
// sequential access.
func (t *Tree) Cover(lo, hi int) ([]CoverRange, error) {
	if lo < 0 || hi >= t.Leaves() || lo > hi {
		return nil, fmt.Errorf("indextree: invalid range [%d, %d] for %d leaves", lo, hi, t.Leaves())
	}
	var out []CoverRange
	var walk func(id uint64, prefix dna.Seq, base, size int)
	walk = func(id uint64, prefix dna.Seq, base, size int) {
		if base > hi || base+size-1 < lo {
			return
		}
		if base >= lo && base+size-1 <= hi {
			out = append(out, CoverRange{
				Prefix: append(dna.Seq(nil), prefix...),
				Lo:     base,
				Hi:     base + size - 1,
			})
			return
		}
		p := t.node(id)
		quarter := size / 4
		for rank := 0; rank < 4; rank++ {
			child := append(prefix, p.edge[rank])
			if t.variant != Dense {
				child = append(child, p.spacer[rank])
			}
			walk(childID(id, rank), child, base+rank*quarter, quarter)
		}
	}
	walk(rootID, make(dna.Seq, 0, t.IndexLen()), 0, t.Leaves())
	return out, nil
}
