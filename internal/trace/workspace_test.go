package trace

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// workspaceFixture builds n clusters of 1-40 reads of random 150-base
// strands under Illumina, nanopore or 5%-per-error-type noise; the
// harshest channel leaves BMA cursors mid-stall at the end of a pass,
// which a workspace must not carry into the next one. Every seventh
// read carries a 12-21 base deletion and an equally long random
// insertion elsewhere, which drives refinement's alignment past the
// bit-parallel band into the scalar fallback.
func workspaceFixture(n int, seed uint64) [][]dna.Seq {
	r := rng.New(seed)
	channels := []channel.Rates{channel.Illumina(), channel.Nanopore(), {Sub: 0.05, Ins: 0.05, Del: 0.05}}
	clusters := make([][]dna.Seq, n)
	for c := range clusters {
		orig := randomSeq(r, 150)
		rates := channels[c%len(channels)]
		reads := noisyCopies(r, orig, 1+c%40, rates)
		for i := range reads {
			if r.Intn(7) == 0 {
				burst := 12 + r.Intn(10)
				del := r.Intn(len(orig) - burst)
				read := append(append(dna.Seq{}, orig[:del]...), orig[del+burst:]...)
				at := r.Intn(len(read))
				read = append(append(append(dna.Seq{}, read[:at]...), randomSeq(r, burst)...), read[at:]...)
				reads[i] = read
			}
		}
		clusters[c] = reads
	}
	return clusters
}

// reconstructions runs every reconstruction of one cluster through w:
// double-sided BMA, the three-group ensemble, refinement of the
// ensemble consensus, and a second refinement fed the first one's
// result (a draft that aliases w). Results are copied out, since each
// call reuses w's buffers.
func reconstructions(w *Workspace, reads []dna.Seq) []dna.Seq {
	ds, err := w.DoubleSided(reads, 150)
	if err != nil {
		panic(err)
	}
	out := []dna.Seq{ds.Clone()}
	ens, err := w.Ensemble(reads, 150, 3)
	if err != nil {
		panic(err)
	}
	out = append(out, ens.Clone())
	ref := w.Refine(reads, ens, 2)
	out = append(out, ref.Clone())
	return append(out, w.Refine(reads, ref, 1).Clone())
}

// TestWorkspaceReuseMatchesFresh pins that a Workspace carries no state
// from one cluster to the next: every reconstruction through one shared
// workspace, over the fixture in forward and then reverse order, equals
// the package-level function's (a fresh workspace per call).
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	clusters := workspaceFixture(400, 31)
	var shared Workspace
	check := func(order string, i int) {
		reads := clusters[i]
		ens, _ := Ensemble(reads, 150, 3)
		ref := Refine(reads, ens, 2)
		ds, _ := DoubleSided(reads, 150)
		want := []dna.Seq{ds, ens, ref, Refine(reads, ref, 1)}
		for k, got := range reconstructions(&shared, reads) {
			if !got.Equal(want[k]) {
				t.Fatalf("%s order, cluster %d (%d reads), reconstruction %d: reused workspace diverges from fresh",
					order, i, len(reads), k)
			}
		}
	}
	for i := range clusters {
		check("forward", i)
	}
	for i := len(clusters) - 1; i >= 0; i-- {
		check("reverse", i)
	}
}

// reconstructionGolden is the SHA-256 of every fixture cluster's
// double-sided, ensemble and twice-refined consensus, computed with the
// allocation-per-call implementation that preceded Workspace.
const reconstructionGolden = "726d6de7f444311f9e9e05a6340bc1c0ee873e0a45611a60cd071bb14208dcf0"

// TestReconstructionGolden pins the package-level reconstructions byte
// for byte across implementation changes.
func TestReconstructionGolden(t *testing.T) {
	h := sha256.New()
	for _, reads := range workspaceFixture(400, 31) {
		ds, err := DoubleSided(reads, 150)
		if err != nil {
			t.Fatal(err)
		}
		ens, err := Ensemble(reads, 150, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref := Refine(reads, ens, 2)
		for _, s := range []dna.Seq{ds, ens, ref, Refine(reads, ref, 1)} {
			fmt.Fprintf(h, "%d:%s;", len(s), s)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != reconstructionGolden {
		t.Errorf("reconstruction digest %s, want %s", got, reconstructionGolden)
	}
}
