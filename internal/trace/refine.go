package trace

import (
	"slices"

	"dnastore/internal/dna"
)

// colVotes accumulates per-draft-position evidence.
type colVotes struct {
	sub [4]int // votes for a base at this draft position
	del int    // votes to delete this draft position
}

// refineScratch holds the vote tables, the bit-parallel traceback
// planes, and the fallback banded-DP buffers that refinement reuses
// across reads, rounds and — through the owning Workspace — clusters;
// alignVote itself allocates nothing once the buffers have grown to
// the working size.
type refineScratch struct {
	cols    []colVotes
	ins     [][4]int
	bp      bitScratch // bit-parallel fill + traceback (refine_bitpar.go)
	prevRow []int16    // scalar fallback: banded DP rows, one sentinel per side
	curRow  []int16
	dir     []int8 // scalar fallback: traceback directions, (m+1) x width
}

// Refine polishes a draft consensus by realigning every read against it
// and re-voting position by position, including insertion and deletion
// votes — the iterative refinement step used by practical DNA-storage
// pipelines on high-error channels, where one BMA pass leaves systematic
// mid-strand errors. rounds of 1-2 are typically sufficient; refinement
// stops early once a round leaves the draft unchanged. The draft itself
// is never modified.
func Refine(reads []dna.Seq, draft dna.Seq, rounds int) dna.Seq {
	var w Workspace
	return w.Refine(reads, draft, rounds)
}

// Refine is the package-level Refine computed in w's buffers; the
// result aliases w. The draft may itself be a consensus returned by an
// earlier call on w: it is copied before any buffer is reused.
func (w *Workspace) Refine(reads []dna.Seq, draft dna.Seq, rounds int) dna.Seq {
	cur := append(w.rounds[0][:0], draft...)
	w.rounds[0] = cur
	for r := 0; r < rounds; r++ {
		next := refineOnce(reads, cur, w.rounds[1], &w.refine)
		w.rounds[0], w.rounds[1] = next, cur
		if next.Equal(cur) {
			break
		}
		cur = next
	}
	return cur
}

// refineBand bounds the alignment band half-width.
const refineBand = 20

// refineOnce realigns all reads to the draft and rebuilds it from the
// per-position votes into dst's storage; with no read able to vote
// the draft is copied through unchanged.
func refineOnce(reads []dna.Seq, draft, dst dna.Seq, sc *refineScratch) dna.Seq {
	n := len(draft)
	if n == 0 || len(reads) == 0 {
		return append(dst[:0], draft...)
	}
	if cap(sc.cols) < n {
		sc.cols = make([]colVotes, n)
	}
	cols := sc.cols[:n]
	clear(cols)
	if cap(sc.ins) < n+1 {
		sc.ins = make([][4]int, n+1)
	}
	// ins[j][b] counts insertions of base b before draft position j.
	ins := sc.ins[:n+1]
	clear(ins)
	voters := 0
	for _, read := range reads {
		if alignVote(read, draft, cols, ins, sc) {
			voters++
		}
	}
	if voters == 0 {
		return append(dst[:0], draft...)
	}
	half := voters / 2
	out := slices.Grow(dst[:0], n+4)
	for j := 0; j <= n; j++ {
		// Majority insertion before position j.
		bestIns, insCount := dna.A, 0
		for b := 0; b < 4; b++ {
			if ins[j][b] > insCount {
				insCount = ins[j][b]
				bestIns = dna.Base(b)
			}
		}
		if insCount > half {
			out = append(out, bestIns)
		}
		if j == n {
			break
		}
		if cols[j].del > half {
			continue // majority says this draft base does not exist
		}
		best, bestVotes := draft[j], -1
		for b := 0; b < 4; b++ {
			if cols[j].sub[b] > bestVotes {
				bestVotes = cols[j].sub[b]
				best = dna.Base(b)
			}
		}
		if bestVotes > 0 {
			out = append(out, best)
		} else {
			out = append(out, draft[j])
		}
	}
	return out
}

// alignVote computes a global alignment of read against draft and adds
// the read's votes along the traceback path. Returns false when the
// read cannot be aligned within the refinement length band. The
// alignment runs as a single bit-parallel fill-and-traceback
// (refine_bitpar.go) whose path is identical to the refineBand-wide
// scalar DP whenever the alignment cost is at most refineBand — a
// banded DP whose cost c satisfies c <= band is exactly the
// unrestricted optimum: every cell (i, j) on an optimal path costs at
// least |i-j|, so the path never leaves the band, and any out-of-band
// candidate consulted during the traceback costs more than c and loses
// the strict-improvement comparison. Only costlier alignments (rare:
// reads at sequencing error rates align at cost ~1-3) fall back to the
// scalar banded DP, whose band-clipped path the unbanded traceback
// cannot reproduce.
func alignVote(read, draft dna.Seq, cols []colVotes, ins [][4]int, sc *refineScratch) bool {
	m, n := len(read), len(draft)
	if m == 0 {
		return false
	}
	diff := m - n
	if diff < -refineBand || diff > refineBand {
		return false
	}
	if cost := bitAlign(read, draft, sc); cost <= refineBand {
		bitTrace(read, draft, cols, ins, sc)
		return true
	}
	if _, ok := alignBand(read, draft, sc, refineBand); !ok {
		return false
	}
	traceVote(read, draft, cols, ins, sc, refineBand)
	return true
}

// alignBand runs the forward banded DP, filling sc.dir (stride
// 2*band+1), and returns the alignment cost of (m, n). The two DP rows
// are padded with one sentinel cell per side (indices shift by +1) so
// the off-1 / off+1 neighbor reads stay in bounds.
func alignBand(read, draft dna.Seq, sc *refineScratch, band int) (int16, bool) {
	m, n := len(read), len(draft)
	width := 2*band + 1
	const inf = int16(30000)
	if cap(sc.prevRow) < width+2 {
		sc.prevRow = make([]int16, width+2)
		sc.curRow = make([]int16, width+2)
	}
	prev, cur := sc.prevRow[:width+2], sc.curRow[:width+2]
	if cap(sc.dir) < (m+1)*width {
		sc.dir = make([]int8, (m+1)*width)
	}
	dir := sc.dir[:(m+1)*width] // 0 diag, 1 up (ins in read), 2 left (del in read)
	for x := range prev {
		prev[x] = inf
	}
	// Row 0: cell (0, j) = j for j <= band.
	prev[band+1] = 0
	for j := 1; j <= n && j <= band; j++ {
		prev[j+band+1] = int16(j)
		dir[j+band] = 2
	}
	for i := 1; i <= m; i++ {
		for x := range cur {
			cur[x] = inf
		}
		if i <= band {
			cur[band-i+1] = int16(i) // cell (i, 0) = i
			dir[i*width+band-i] = 1
		}
		lo := i - band
		if lo < 1 {
			lo = 1
		}
		hi := i + band
		if hi > n {
			hi = n
		}
		dbase := i * width
		for j := lo; j <= hi; j++ {
			off := j - i + band
			best := inf
			var bd int8
			if v := prev[off+1]; v < inf { // diag: cell (i-1, j-1)
				cost := int16(1)
				if read[i-1] == draft[j-1] {
					cost = 0
				}
				if v+cost < best {
					best, bd = v+cost, 0
				}
			}
			if v := prev[off+2]; v < inf { // up: cell (i-1, j)
				if v+1 < best {
					best, bd = v+1, 1
				}
			}
			if v := cur[off]; v < inf { // left: cell (i, j-1)
				if v+1 < best {
					best, bd = v+1, 2
				}
			}
			if best < inf {
				cur[off+1] = best
				dir[dbase+off] = bd
			}
		}
		prev, cur = cur, prev
	}
	cost := prev[n-m+band+1]
	return cost, cost < inf
}

// traceVote walks sc.dir back from (m, n) and adds the read's votes.
func traceVote(read, draft dna.Seq, cols []colVotes, ins [][4]int, sc *refineScratch, band int) {
	m, n := len(read), len(draft)
	width := 2*band + 1
	dir := sc.dir
	i, j := m, n
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && dir[i*width+j-i+band] == 0:
			cols[j-1].sub[read[i-1]]++
			i--
			j--
		case i > 0 && dir[i*width+j-i+band] == 1:
			ins[j][read[i-1]]++
			i--
		default:
			cols[j-1].del++
			j--
		}
	}
}
