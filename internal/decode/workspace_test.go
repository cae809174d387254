package decode

import (
	"reflect"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// indelBurst deletes a run of bases at one position and inserts as many
// random bases at another, so the read keeps its length but aligns to
// its strand at a cost above the refinement band: alignVote takes the
// scalar banded fallback for it.
func indelBurst(r *rng.Source, s dna.Seq, burst int) dna.Seq {
	del := r.Intn(len(s) - burst)
	out := append(append(dna.Seq{}, s[:del]...), s[del+burst:]...)
	at := r.Intn(len(out))
	ins := make(dna.Seq, burst)
	for i := range ins {
		ins[i] = dna.Base(r.Intn(4))
	}
	return append(append(append(dna.Seq{}, out[:at]...), ins...), out[at:]...)
}

// workspaceClusters builds n clusters of 1-40 noisy reads of the
// strands of a few units, mixing Illumina and nanopore noise with
// occasional indel bursts, so reconstruction runs every path: the
// double-sided pass (< 15 reads), the ensemble (>= 15), refinement
// (>= 3) with its bit-parallel and scalar alignments, and fitLength's
// padding and truncation.
func workspaceClusters(t testing.TB, e *encoder, n int, seed uint64) [][]dna.Seq {
	r := rng.New(seed)
	var strands []dna.Seq
	for block := 0; block < 4; block++ {
		strands = append(strands, e.encodeUnit(t, 40+block, block%2, unitData(r, e.unit.DataBytes()))...)
	}
	clusters := make([][]dna.Seq, n)
	for c := range clusters {
		s := strands[r.Intn(len(strands))]
		rates := channel.Illumina()
		if c%3 == 0 {
			rates = channel.Nanopore()
		}
		reads := make([]dna.Seq, 1+c%40)
		for i := range reads {
			if r.Intn(8) == 0 {
				reads[i] = indelBurst(r, s, 12+r.Intn(10))
			} else {
				reads[i] = channel.Corrupt(r, s, rates)
			}
		}
		clusters[c] = reads
	}
	return clusters
}

type reconstructOutcome struct {
	cand strandCandidate
	ok   bool
}

// TestReconstructWorkspaceReuse pins that a workspace carries nothing
// from one cluster into the next: reconstructing every cluster through
// one shared workspace, in forward and in reverse order, gives exactly
// the candidates of a fresh workspace per cluster.
func TestReconstructWorkspaceReuse(t *testing.T) {
	e := newEncoder(t)
	p := newPipeline(t, e)
	clusters := workspaceClusters(t, e, 240, 21)
	fresh := make([]reconstructOutcome, len(clusters))
	for i, reads := range clusters {
		var ws workspace
		fresh[i].cand, fresh[i].ok = p.reconstruct(&ws, reads, len(reads))
	}
	decoded := 0
	for _, f := range fresh {
		if f.ok {
			decoded++
		}
	}
	if decoded < len(clusters)/2 {
		t.Fatalf("only %d of %d clusters reconstructed; the fixture is too noisy to compare", decoded, len(clusters))
	}
	var shared workspace
	check := func(order string, i int) {
		var got reconstructOutcome
		got.cand, got.ok = p.reconstruct(&shared, clusters[i], len(clusters[i]))
		if !reflect.DeepEqual(got, fresh[i]) {
			t.Fatalf("%s order, cluster %d (%d reads): reused workspace %+v, fresh %+v",
				order, i, len(clusters[i]), got, fresh[i])
		}
	}
	for i := range clusters {
		check("forward", i)
	}
	for i := len(clusters) - 1; i >= 0; i-- {
		check("reverse", i)
	}
}

// TestReconstructAllocs pins reconstruction on a warm workspace at one
// allocation per cluster: the candidate's payload.
func TestReconstructAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin is meaningless")
	}
	e := newEncoder(t)
	p := newPipeline(t, e)
	r := rng.New(5)
	strands := e.encodeUnit(t, 7, 0, unitData(r, e.unit.DataBytes()))
	kept := makeReads(r, strands[:1], 12, channel.Illumina())
	members := make([]int, len(kept))
	for i := range members {
		members[i] = i
	}
	var ws workspace
	if _, ok := p.reconstructCluster(&ws, kept, members); !ok {
		t.Fatal("12-read cluster did not reconstruct")
	}
	allocs := testing.AllocsPerRun(50, func() {
		p.reconstructCluster(&ws, kept, members)
	})
	if allocs > 1 {
		t.Errorf("warm reconstruction allocates %.1f times per cluster, want <= 1", allocs)
	}
}

// fuzzWS is the workspace FuzzReconstruct carries across inputs (a
// fuzz worker runs its inputs one at a time).
var fuzzWS workspace

// FuzzReconstruct feeds arbitrary reads to the per-read parsers and to
// reconstruction. The first byte picks 1-20 reads; every further byte
// is one base (b & 3), split evenly across the reads. None of
// ProvisionalAddress, Keep and reconstruct may panic, and
// reconstruction through a workspace used on earlier inputs must equal
// reconstruction through a fresh one.
func FuzzReconstruct(f *testing.F) {
	e := newEncoder(f)
	p := newPipeline(f, e)
	r := rng.New(9)
	strands := e.encodeUnit(f, 12, 1, unitData(r, e.unit.DataBytes()))
	for i, s := range strands[:4] {
		k := 1 + 4*i
		seed := []byte{byte(k - 1)}
		for j := 0; j < k; j++ {
			// Truncate or pad each noisy read to the strand length, so
			// the fuzz split recovers it as one read.
			read := channel.Corrupt(r, s, channel.Illumina())
			chunk := make([]byte, len(s))
			for x := range chunk {
				if x < len(read) {
					chunk[x] = byte(read[x])
				}
			}
			seed = append(seed, chunk...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%20
		bases := make(dna.Seq, len(data)-1)
		for i, b := range data[1:] {
			bases[i] = dna.Base(b & 3)
		}
		reads := make([]dna.Seq, k)
		chunk := len(bases) / k
		for i := range reads {
			lo, hi := i*chunk, (i+1)*chunk
			if i == k-1 {
				hi = len(bases)
			}
			reads[i] = bases[lo:hi]
			p.ProvisionalAddress(reads[i])
			p.Keep(reads[i])
		}
		var fresh workspace
		var want, got reconstructOutcome
		want.cand, want.ok = p.reconstruct(&fresh, reads, k)
		got.cand, got.ok = p.reconstruct(&fuzzWS, reads, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reused workspace %+v, fresh %+v", got, want)
		}
	})
}
