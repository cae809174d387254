package trace

import (
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

func randSeq(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

// scalarVote is the pre-bit-parallel alignVote, kept as the pinned
// reference: probe the narrow band first, fall back to the wide one.
// Equivalent to the historical two-stage DP because a banded cost of
// at most the band equals the unbanded optimum.
func scalarVote(read, draft dna.Seq, cols []colVotes, ins [][4]int, sc *refineScratch) bool {
	const probeBand = 8
	m, n := len(read), len(draft)
	if m == 0 {
		return false
	}
	diff := m - n
	if diff < -refineBand || diff > refineBand {
		return false
	}
	if diff >= -probeBand && diff <= probeBand {
		if cost, ok := alignBand(read, draft, sc, probeBand); ok && cost <= probeBand {
			traceVote(read, draft, cols, ins, sc, probeBand)
			return true
		}
	}
	if _, ok := alignBand(read, draft, sc, refineBand); !ok {
		return false
	}
	traceVote(read, draft, cols, ins, sc, refineBand)
	return true
}

// TestAlignVoteMatchesScalarReference pins the bit-parallel
// fill-and-traceback vote-for-vote against the scalar banded DP across
// the noise spectrum: clean copies, Illumina- and Nanopore-corrupted
// reads, truncated reads, random unrelated reads, and short drafts
// that fit one DP word as well as full-length multi-word drafts.
func TestAlignVoteMatchesScalarReference(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 4000; trial++ {
		n := 20 + r.Intn(150) // draft length: single-word through 3-word reads
		draft := randSeq(r, n)
		var read dna.Seq
		switch trial % 5 {
		case 0:
			read = draft.Clone()
		case 1:
			read = channel.Corrupt(r, draft, channel.Illumina())
		case 2:
			read = channel.Corrupt(r, draft, channel.Nanopore())
		case 3: // truncated read, stresses the length-difference band
			cut := len(draft) - r.Intn(refineBand+4)
			if cut < 1 {
				cut = 1
			}
			read = channel.Corrupt(r, draft[:cut], channel.Illumina())
		default: // unrelated read: high-cost alignments hit the fallback
			read = randSeq(r, n-r.Intn(10))
		}
		var scBit, scRef refineScratch
		colsBit := make([]colVotes, n)
		colsRef := make([]colVotes, n)
		insBit := make([][4]int, n+1)
		insRef := make([][4]int, n+1)
		gotOK := alignVote(read, draft, colsBit, insBit, &scBit)
		wantOK := scalarVote(read, draft, colsRef, insRef, &scRef)
		if gotOK != wantOK {
			t.Fatalf("trial %d: alignVote ok=%v, scalar ok=%v", trial, gotOK, wantOK)
		}
		for j := range colsBit {
			if colsBit[j] != colsRef[j] {
				t.Fatalf("trial %d: column %d votes %+v, want %+v (read %d vs draft %d)",
					trial, j, colsBit[j], colsRef[j], len(read), n)
			}
		}
		for j := range insBit {
			if insBit[j] != insRef[j] {
				t.Fatalf("trial %d: insertion votes at %d differ: %v want %v",
					trial, j, insBit[j], insRef[j])
			}
		}
	}
}

// TestBitAlignCostExact pins the bit-parallel fill's returned cost
// against the exact edit distance.
func TestBitAlignCostExact(t *testing.T) {
	r := rng.New(42)
	var sc refineScratch
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(170)
		draft := randSeq(r, n)
		var read dna.Seq
		if trial%2 == 0 {
			read = channel.Corrupt(r, draft, channel.Nanopore())
		} else {
			read = randSeq(r, 1+r.Intn(170))
		}
		if len(read) == 0 {
			continue
		}
		got := bitAlign(read, draft, &sc)
		want := dna.CompilePattern(read).Distance(draft)
		if got != want {
			t.Fatalf("trial %d: bitAlign cost %d, want %d (m=%d n=%d)", trial, got, want, len(read), n)
		}
	}
}

// TestAlignVoteAllocs pins the steady-state refinement hot path as
// allocation-free once the scratch has grown.
func TestAlignVoteAllocs(t *testing.T) {
	r := rng.New(43)
	draft := randSeq(r, 150)
	reads := make([]dna.Seq, 16)
	for i := range reads {
		reads[i] = channel.Corrupt(r, draft, channel.Illumina())
	}
	var sc refineScratch
	cols := make([]colVotes, len(draft))
	ins := make([][4]int, len(draft)+1)
	alignVote(reads[0], draft, cols, ins, &sc) // grow the scratch
	avg := testing.AllocsPerRun(50, func() {
		for _, read := range reads {
			alignVote(read, draft, cols, ins, &sc)
		}
	})
	if avg != 0 {
		t.Errorf("alignVote allocates %.1f per 16-read batch, want 0", avg)
	}
}

func BenchmarkAlignVote(b *testing.B) {
	r := rng.New(44)
	draft := randSeq(r, 150)
	reads := make([]dna.Seq, 32)
	for i := range reads {
		reads[i] = channel.Corrupt(r, draft, channel.Nanopore())
	}
	var sc refineScratch
	cols := make([]colVotes, len(draft))
	ins := make([][4]int, len(draft)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, read := range reads {
			alignVote(read, draft, cols, ins, &sc)
		}
	}
}

func BenchmarkAlignVoteScalar(b *testing.B) {
	r := rng.New(44)
	draft := randSeq(r, 150)
	reads := make([]dna.Seq, 32)
	for i := range reads {
		reads[i] = channel.Corrupt(r, draft, channel.Nanopore())
	}
	var sc refineScratch
	cols := make([]colVotes, len(draft))
	ins := make([][4]int, len(draft)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, read := range reads {
			scalarVote(read, draft, cols, ins, &sc)
		}
	}
}
