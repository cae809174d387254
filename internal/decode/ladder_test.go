package decode

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// handClusters builds a kept read set and its clusters by hand: each
// cluster is size noiseless copies of one strand, so it reconstructs
// to exactly that strand.
type handClusters struct {
	kept     []dna.Seq
	clusters [][]int
}

func (h *handClusters) add(strand dna.Seq, size int) {
	var members []int
	for range size {
		members = append(members, len(h.kept))
		h.kept = append(h.kept, strand)
	}
	h.clusters = append(h.clusters, members)
}

// sorted orders the clusters by descending size, ties in the order they
// were added — DecodeClusters' contract.
func (h *handClusters) sorted() [][]int {
	sort.SliceStable(h.clusters, func(i, j int) bool { return len(h.clusters[i]) > len(h.clusters[j]) })
	return h.clusters
}

// unitStrands are the strands of one hand-built unit: its own, and
// those of two foreign units at the same address.
type unitStrands struct {
	truth, foreign, other []dna.Seq
}

// rung is one unit of a ladder test: how its clusters are built and
// how decodeUnit must decide it.
type rung struct {
	name            string
	block           int
	build           func(h *handClusters, u unitStrands)
	erased, missing int
	reads           int
	err             error // nil: the unit decodes
}

// Rungs shared by the sealed and the unsealed ladder.
var (
	plainRung = rung{"plain", 20, func(h *handClusters, u unitStrands) {
		for _, s := range u.truth {
			h.add(s, 3)
		}
	}, 0, 0, 45, nil}
	// Five impostors: erasing the four smallest still leaves one, which
	// the seal rejects; without a seal only three may be erased.
	marginRung = rung{"margin", 24, func(h *handClusters, u unitStrands) {
		for i, s := range u.truth {
			if i < 5 {
				h.add(u.foreign[i], 1)
				continue
			}
			h.add(s, 3)
		}
	}, 0, 0, 35, ErrRSMarginExceeded}
)

// missingRung observes only the unit's first 15-missing strands.
func missingRung(name string, block, missing int, err error) rung {
	return rung{name, block, func(h *handClusters, u unitStrands) {
		for _, s := range u.truth[:15-missing] {
			h.add(s, 3)
		}
	}, 0, missing, 3 * (15 - missing), err}
}

// TestDecodeUnitLadder decides one unit on each rung of decodeUnit:
// the plain decode, an alternate substituted behind an impostor
// primary, erasure of the contested slots, erasure of the smallest
// clusters, the RS-margin failure and the missing-slot fast fail. An
// impostor is a strand of a foreign unit at the same address, whose
// payload is a valid codeword symbol of the wrong unit; RS(15,11)
// corrects two such slots, or e erasures plus (4-e)/2 of them. A sealed
// codec spends the whole parity on erasures, its seal rejecting wrong
// codewords; an unsealed one (pad 0) keeps one check symbol per
// attempt, so a unit it cannot check fails typed instead of decoding
// to wrong bytes.
func TestDecodeUnitLadder(t *testing.T) {
	t.Run("sealed", func(t *testing.T) {
		runLadder(t, 8, []rung{
			plainRung,
			{"alternate", 21, func(h *handClusters, u unitStrands) {
				// Three impostor primaries are past the correction radius;
				// the true strand behind slot 0 leaves two, which RS corrects.
				for i, s := range u.truth {
					if i < 3 {
						s = u.foreign[i]
					}
					h.add(s, 3)
				}
				h.add(u.truth[0], 2)
			}, 0, 0, 45, nil},
			{"contested", 22, func(h *handClusters, u unitStrands) {
				// Impostors behind impostors: no substitution helps, erasing
				// the three contested slots does.
				for i, s := range u.truth {
					if i < 3 {
						h.add(u.foreign[i], 3)
						h.add(u.other[i], 2)
						continue
					}
					h.add(s, 3)
				}
			}, 3, 0, 45, nil},
			{"smallest", 23, func(h *handClusters, u unitStrands) {
				// Three single-read impostors and no alternates: erasing one
				// leaves two errors beside it, erasing two leaves one.
				for i, s := range u.truth {
					if i < 3 {
						h.add(u.foreign[i], 1)
						continue
					}
					h.add(s, 3)
				}
			}, 2, 0, 39, nil},
			marginRung,
			missingRung("missing", 25, 5, ErrInsufficientCoverage),
			missingRung("parity missing", 26, 4, nil),
		})
	})
	t.Run("unsealed", func(t *testing.T) {
		runLadder(t, 0, []rung{
			plainRung,
			marginRung,
			missingRung("three missing", 25, 3, nil),
			missingRung("parity missing", 26, 4, ErrInsufficientCoverage),
		})
	})
}

// runLadder builds every rung's unit under a codec with the given pad,
// decodes them all in one DecodeClusters call and checks each unit's
// outcome.
func runLadder(t *testing.T, pad int, rungs []rung) {
	e := newEncoderPad(t, pad)
	p, err := New(DefaultConfig(), e.tree, fwdP, revP, e.unit)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	n := e.unit.DataBytes()
	var h handClusters
	want := map[int][]byte{}
	for _, rung := range rungs {
		data := unitData(r, n)
		want[rung.block] = data
		rung.build(&h, unitStrands{
			truth:   e.encodeUnit(t, rung.block, 0, data),
			foreign: e.encodeUnit(t, rung.block, 0, unitData(r, n)),
			other:   e.encodeUnit(t, rung.block, 0, unitData(r, n)),
		})
	}
	results, err := p.DecodeClusters(h.kept, h.sorted(), -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rung := range rungs {
		res := results[rung.block]
		if res == nil || len(res.Units) != 1 {
			t.Fatalf("%s: block %d result %+v, want one unit", rung.name, rung.block, res)
		}
		u, ok := res.Units[0]
		if !ok {
			t.Fatalf("%s: version 0 missing", rung.name)
		}
		if rung.err == nil {
			if u.Err != nil || !bytes.Equal(u.Data, want[rung.block]) {
				t.Errorf("%s: err %v, data correct %v", rung.name, u.Err, bytes.Equal(u.Data, want[rung.block]))
			}
		} else if !errors.Is(u.Err, rung.err) || u.Data != nil {
			t.Errorf("%s: err %v with %d data bytes, want %v and none", rung.name, u.Err, len(u.Data), rung.err)
		}
		if u.Erased != rung.erased || u.Missing != rung.missing || u.Reads != rung.reads {
			t.Errorf("%s: erased %d missing %d reads %d, want %d, %d, %d",
				rung.name, u.Erased, u.Missing, u.Reads, rung.erased, rung.missing, rung.reads)
		}
	}
}

// TestDecodeTargetStops pins the early stop of a target decode: it
// consumes clusters only until every observed version of the target
// holds a strand in every slot. Block 30's two versions interleave
// behind a larger foreign block, so the stop falls on the 45th cluster,
// before the smaller block behind them, for any worker count.
func TestDecodeTargetStops(t *testing.T) {
	e := newEncoder(t)
	r := rng.New(32)
	n := e.unit.DataBytes()
	var h handClusters
	for _, s := range e.encodeUnit(t, 31, 0, unitData(r, n)) {
		h.add(s, 6)
	}
	v0, v1 := unitData(r, n), unitData(r, n)
	s0, s1 := e.encodeUnit(t, 30, 0, v0), e.encodeUnit(t, 30, 1, v1)
	for i := range s0 {
		h.add(s0[i], 5)
		h.add(s1[i], 5)
	}
	for _, s := range e.encodeUnit(t, 32, 0, unitData(r, n)) {
		h.add(s, 4)
	}
	clusters := h.sorted()
	for _, workers := range []int{1, 4} {
		p := newPipelineWorkers(t, e, workers)
		results, err := p.DecodeClusters(h.kept, clusters, 30)
		if err != nil {
			t.Fatal(err)
		}
		res := results[30]
		if len(results) != 1 || res == nil {
			t.Fatalf("workers=%d: results for blocks %v, want block 30 only", workers, results)
		}
		if res.ClustersUsed != 45 {
			t.Errorf("workers=%d: %d clusters used, want 45", workers, res.ClustersUsed)
		}
		if !bytes.Equal(res.Units[0].Data, v0) || !bytes.Equal(res.Units[1].Data, v1) {
			t.Errorf("workers=%d: versions of block 30 not recovered", workers)
		}
	}
}
