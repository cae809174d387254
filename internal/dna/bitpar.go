package dna

// This file implements the bit-parallel alignment engine: Myers'
// bit-vector algorithm (Myers 1999, in Hyyrö's 2003 formulation) over
// per-pattern Eq bitmask tables. One 64-bit word processes 64 dynamic-
// programming rows per text character, replacing the per-cell banded
// DPs on every hot comparison path: cluster joins, index-tree candidate
// filtering, primer location in reads, PCR binding scores, and trace
// refinement probes. Bounded distance against patterns longer than 64
// bases uses a banded blocked variant (the multi-word state of Myers'
// original paper, restricted to the Ukkonen band ceil(k/64)+1 blocks
// wide); the search and end-alignment kernels take patterns of at most
// MaxPatternLen bases, which covers every primer, elongated primer and
// index a valid geometry produces.
//
// The compiled Pattern is the package's only alignment engine. The
// differential and fuzz tests in bitpar_test.go pin every kernel's
// outputs to the unbanded O(mn) dynamic programs kept beside them as
// test-only references.

// wordBits is the DP-row count one machine word carries.
const wordBits = 64

// MaxPatternLen is the longest pattern the search and end-alignment
// kernels (FindApprox, FindApproxRight, PrefixAlignmentAtMost,
// SuffixAlignmentAtMost) accept: one machine word of DP rows. Geometry
// and PCR validation reject primers that would exceed it.
const MaxPatternLen = wordBits

// maxStackBlocks bounds the pattern length (in 64-row blocks) for which
// the blocked kernel keeps its state on the stack: 8 blocks = 512
// bases, far above any strand or read the simulator produces. Compiled
// Patterns beyond that run the blocked kernel with heap scratch.
const maxStackBlocks = 8

// Pattern is a sequence compiled for bit-parallel alignment: the
// per-base Eq bitmasks are precomputed once so every subsequent
// comparison only streams the text. Compile a pattern for any sequence
// compared repeatedly — a cluster representative, a primer, a consensus
// draft — and call the kernels on it. A Pattern is safe for concurrent
// use until it is compiled over again.
type Pattern struct {
	m    int
	peq  [4]uint64   // forward Eq masks (m <= 64)
	rpeq [4]uint64   // reversed Eq masks (m <= 64), for suffix kernels
	bpeq [][4]uint64 // per-block forward Eq masks (m > 64)
}

// CompilePattern builds the Eq bitmask tables for seq: bit i of eq[c]
// is set iff seq[i] == c. The tables are all the kernels read, so the
// caller may mutate seq afterwards. It is kept out of line so the
// Pattern it returns is always a heap object of its own: one
// allocation, plus the per-block table past one word.
//
//go:noinline
func CompilePattern(seq Seq) *Pattern {
	p := new(Pattern)
	p.Compile(seq)
	return p
}

// Compile rebuilds p's tables for seq in place, as CompilePattern
// would build them, reusing p's per-block table when it is large
// enough. Compiling over a Pattern changes it, so no other goroutine
// may use p meanwhile.
func (p *Pattern) Compile(seq Seq) {
	p.m = len(seq)
	p.peq, p.rpeq = [4]uint64{}, [4]uint64{}
	if p.m <= wordBits {
		p.bpeq = p.bpeq[:0]
		for i, c := range seq {
			p.peq[c] |= 1 << uint(i)
			p.rpeq[c] |= 1 << uint(p.m-1-i)
		}
		return
	}
	nb := (p.m + wordBits - 1) / wordBits
	if cap(p.bpeq) < nb {
		p.bpeq = make([][4]uint64, nb)
	} else {
		p.bpeq = p.bpeq[:nb]
		clear(p.bpeq)
	}
	for i, c := range seq {
		p.bpeq[i/wordBits][c] |= 1 << uint(i%wordBits)
	}
}

// Len returns the pattern length in bases.
func (p *Pattern) Len() int { return p.m }

// --- word kernels (m <= 64) ---------------------------------------------
//
// State per column: VP/VN hold the vertical deltas D(i,j) - D(i-1,j) as
// +1/-1 bitmasks over rows i in [1, m]; score tracks D(m, j). The global
// (distance) kernels charge the text start — the horizontal delta at row
// 0 is +1 every column — while the search kernels leave it free.

// distWord computes the bounded edit distance between the pattern
// described by peq (length m in [1, 64]) and text. It returns the exact
// distance when it is at most k, and ok=false otherwise. The caller
// must have rejected |m - len(text)| > k.
func distWord(peq *[4]uint64, m int, text Seq, k int) (int, bool) {
	n := len(text)
	vp := ^uint64(0) >> uint(wordBits-m)
	vn := uint64(0)
	score := m
	hmask := uint64(1) << uint(m-1)
	for j := 0; j < n; j++ {
		eq := peq[text[j]]
		xv := eq | vn
		xh := (((eq & vp) + vp) ^ vp) | eq
		ph := vn | ^(xh | vp)
		mh := vp & xh
		if ph&hmask != 0 {
			score++
		} else if mh&hmask != 0 {
			score--
		}
		ph = ph<<1 | 1 // charged text start: horizontal +1 into row 1
		mh <<= 1
		vp = mh | ^(xv | ph)
		vn = ph & xv
		// D(m, n) >= D(m, j+1) - (remaining columns): hopeless pairs
		// exit as soon as the budget is unreachable.
		if score-(n-1-j) > k {
			return 0, false
		}
	}
	if score > k {
		return 0, false
	}
	return score, true
}

// prefixWord returns the minimum edit distance between the pattern and
// any prefix of text together with the leftmost best end, provided the
// distance is at most k. With rev set, peq must hold the reversed
// pattern's masks and text is consumed back to front, which computes
// the suffix alignment instead (end is then counted from the text end).
func prefixWord(peq *[4]uint64, m int, text Seq, k int, rev bool) (dist, end int, ok bool) {
	n := len(text)
	lim := n
	if lim > m+k {
		lim = m + k // D(m, j) >= j-m > k beyond the band
	}
	vp := ^uint64(0) >> uint(wordBits-m)
	vn := uint64(0)
	score := m
	hmask := uint64(1) << uint(m-1)
	best, bestEnd := m, 0
	for j := 0; j < lim; j++ {
		var eq uint64
		if rev {
			eq = peq[text[n-1-j]]
		} else {
			eq = peq[text[j]]
		}
		xv := eq | vn
		xh := (((eq & vp) + vp) ^ vp) | eq
		ph := vn | ^(xh | vp)
		mh := vp & xh
		if ph&hmask != 0 {
			score++
		} else if mh&hmask != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		vp = mh | ^(xv | ph)
		vn = ph & xv
		if score < best {
			best, bestEnd = score, j+1
		}
	}
	if best > k {
		return 0, 0, false
	}
	return best, bestEnd, true
}

// findWord searches text for an approximate occurrence of the pattern
// (free text start) with Sellers' selection rules: leftmost
// strictly-better match, or rightmost greater-or-equal match when
// rightmost is set. Returns end = -1 and dist = k+1 when no occurrence
// is within k.
func findWord(peq *[4]uint64, m int, text Seq, k int, rightmost bool) (end, dist int) {
	n := len(text)
	vp := ^uint64(0) >> uint(wordBits-m)
	vn := uint64(0)
	score := m
	hmask := uint64(1) << uint(m-1)
	bestEnd, bestDist := -1, k+1
	for j := 0; j < n; j++ {
		eq := peq[text[j]]
		xv := eq | vn
		xh := (((eq & vp) + vp) ^ vp) | eq
		ph := vn | ^(xh | vp)
		mh := vp & xh
		if ph&hmask != 0 {
			score++
		} else if mh&hmask != 0 {
			score--
		}
		ph <<= 1 // free text start: no horizontal charge into row 1
		mh <<= 1
		vp = mh | ^(xv | ph)
		vn = ph & xv
		if rightmost {
			if score <= bestDist && score <= k {
				bestDist, bestEnd = score, j+1
			}
		} else if score < bestDist {
			bestDist, bestEnd = score, j+1
			if bestDist == 0 {
				break // an exact leftmost match cannot be improved
			}
		}
	}
	return bestEnd, bestDist
}

// --- blocked kernel (m > 64) --------------------------------------------

// distBlocked is distWord for patterns spanning several words. Blocks
// chain their horizontal deltas bottom-up; only blocks intersecting the
// Ukkonen band |i-j| <= k are advanced. Blocks that have fallen wholly
// below the band are frozen and their boundary delta is thereafter
// assumed +1; blocks not yet reached keep their column-0 state until
// the band touches them. Both assumptions only overestimate cells that
// are provably beyond the budget, so every cell whose true value is at
// most k is computed exactly (see the differential tests).
// vp, vn and sc are caller-provided scratch of length len(bpeq).
func distBlocked(bpeq [][4]uint64, m int, text Seq, k int, vp, vn []uint64, sc []int) (int, bool) {
	n := len(text)
	nb := len(bpeq)
	if n == 0 {
		return m, true // m <= k: the caller rejected |m-n| > k
	}
	lastMask := uint64(1) << uint((m-1)%wordBits)
	// Column 0 is all-vertical (+1 per row), which is exactly the state
	// a not-yet-activated block is assumed to hold: only block 0 needs
	// materializing now.
	vp[0], vn[0] = ^uint64(0), 0
	sc[0] = wordBits
	if nb == 1 {
		sc[0] = m
	}
	first, last := 0, 0
	for j := 1; j <= n; j++ {
		// Activate blocks the band's lower edge (row j+k) has reached.
		hi := j + k
		if hi > m {
			hi = m
		}
		for last < (hi-1)/wordBits {
			last++
			vp[last], vn[last] = ^uint64(0), 0
			r := (last + 1) * wordBits
			if r > m {
				r = m
			}
			sc[last] = sc[last-1] + r - last*wordBits
		}
		// Freeze blocks wholly above the band's upper edge (row j-k).
		if lo := j - k; lo > 1 && (lo-1)/wordBits > first {
			first = (lo - 1) / wordBits
		}
		c := text[j-1]
		hin := 1 // charged text start; also the frozen-boundary assumption
		for b := first; b <= last; b++ {
			eq := bpeq[b][c]
			vpb, vnb := vp[b], vn[b]
			xv := eq | vnb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & vpb) + vpb) ^ vpb) | eq
			ph := vnb | ^(xh | vpb)
			mh := vpb & xh
			mask := uint64(1) << (wordBits - 1)
			if b == nb-1 {
				mask = lastMask
			}
			hout := 0
			if ph&mask != 0 {
				hout = 1
			} else if mh&mask != 0 {
				hout = -1
			}
			sc[b] += hout
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			vp[b] = mh | ^(xv | ph)
			vn[b] = ph & xv
			hin = hout
		}
	}
	// |m-n| <= k guarantees row m is inside the band at column n, so the
	// final block is active and sc[nb-1] = D(m, n).
	if last < nb-1 || sc[nb-1] > k {
		return 0, false
	}
	return sc[nb-1], true
}

// --- Pattern kernels -----------------------------------------------------

// DistanceAtMost returns the edit distance between the pattern and text
// provided it is at most k; ok is false otherwise. Patterns of any
// length are accepted: reads and cluster representatives run the
// blocked kernel.
func (p *Pattern) DistanceAtMost(text Seq, k int) (dist int, ok bool) {
	if k < 0 {
		return 0, false
	}
	m, n := p.m, len(text)
	if m-n > k || n-m > k {
		return 0, false
	}
	if m == 0 {
		return n, true // n <= k by the length check
	}
	if m <= wordBits {
		return distWord(&p.peq, m, text, k)
	}
	nb := len(p.bpeq)
	if nb <= maxStackBlocks {
		var vp, vn [maxStackBlocks]uint64
		var sc [maxStackBlocks]int
		return distBlocked(p.bpeq, m, text, k, vp[:nb], vn[:nb], sc[:nb])
	}
	vp, vn, sc := make([]uint64, nb), make([]uint64, nb), make([]int, nb)
	return distBlocked(p.bpeq, m, text, k, vp, vn, sc)
}

// Distance returns the exact edit distance between the pattern and
// text. The budget max(m, n) always suffices, so the bounded kernel
// never rejects.
func (p *Pattern) Distance(text Seq) int {
	k := p.m
	if len(text) > k {
		k = len(text)
	}
	d, _ := p.DistanceAtMost(text, k)
	return d
}

// LevenshteinAtMost reports whether the edit distance between the
// pattern and text is at most k.
func (p *Pattern) LevenshteinAtMost(text Seq, k int) bool {
	_, ok := p.DistanceAtMost(text, k)
	return ok
}

// mustFitWord enforces the word kernels' precondition: it panics if
// the pattern is longer than MaxPatternLen, since those kernels carry
// one DP row per bit of a single word.
func (p *Pattern) mustFitWord() {
	if p.m > MaxPatternLen {
		panic("dna: search and end alignment require a pattern of at most 64 bases")
	}
}

// FindApprox searches text for an approximate occurrence of the pattern
// with edit distance at most k, returning the end index of the leftmost
// best match and its distance, or (-1, k+1) if none exists. It locates
// primers inside noisy sequencing reads before trimming. The empty
// pattern matches at 0 with distance 0. It panics if the pattern is
// longer than MaxPatternLen.
func (p *Pattern) FindApprox(text Seq, k int) (end, dist int) {
	p.mustFitWord()
	if p.m == 0 {
		return 0, 0
	}
	if k < 0 {
		return -1, k + 1
	}
	return findWord(&p.peq, p.m, text, k, false)
}

// FindApproxRight is FindApprox preferring the rightmost best match; the
// empty pattern matches at len(text). Use it to locate a primer that is
// expected near the end of a read: with periodic primers, a payload that
// coincidentally extends the primer's period would otherwise produce an
// equally good earlier match. It panics if the pattern is longer than
// MaxPatternLen.
func (p *Pattern) FindApproxRight(text Seq, k int) (end, dist int) {
	p.mustFitWord()
	if p.m == 0 {
		return len(text), 0
	}
	if k < 0 {
		return -1, k + 1
	}
	return findWord(&p.peq, p.m, text, k, true)
}

// PrefixAlignmentAtMost returns the minimum edit distance between the
// pattern and any prefix of text with the end of the leftmost best
// prefix, provided it is at most k; ok is false otherwise, with zero
// dist and end. This is the binding model for a PCR primer annealing to
// the start of a template: synthesis and sequencing indels mean the
// matching region may be slightly shorter or longer than the primer.
// It panics if the pattern is longer than MaxPatternLen.
func (p *Pattern) PrefixAlignmentAtMost(text Seq, k int) (dist, end int, ok bool) {
	p.mustFitWord()
	if k < 0 {
		return 0, 0, false
	}
	if p.m == 0 {
		return 0, 0, true
	}
	if p.m-len(text) > k {
		return 0, 0, false
	}
	return prefixWord(&p.peq, p.m, text, k, false)
}

// SuffixAlignmentAtMost returns the minimum edit distance between the
// pattern and any suffix of text, provided it is at most k; ok is false
// otherwise, with zero dist. It is PrefixAlignmentAtMost on the reversed
// sequences, run with reversed indexing so nothing is copied: the
// reverse-primer binding model of the PCR simulator. It panics if the
// pattern is longer than MaxPatternLen.
func (p *Pattern) SuffixAlignmentAtMost(text Seq, k int) (dist int, ok bool) {
	p.mustFitWord()
	if k < 0 {
		return 0, false
	}
	if p.m == 0 {
		return 0, true
	}
	if p.m-len(text) > k {
		return 0, false
	}
	d, _, ok := prefixWord(&p.rpeq, p.m, text, k, true)
	return d, ok
}
