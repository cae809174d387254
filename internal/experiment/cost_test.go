package experiment

import (
	"bytes"
	"errors"
	"testing"

	"dnastore/internal/blockstore"
)

// newBaselineStore returns a baseline store over four primers: room for
// exactly two generations of one object.
func newBaselineStore(t *testing.T) *blockstore.Store {
	t.Helper()
	primers, err := SearchPrimers(99, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := baselineStore(primers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBaselineWriteReadBack(t *testing.T) {
	// A first write stores the object whole under its own primer pair and
	// reads back through the same partition.
	s := newBaselineStore(t)
	data := bytes.Repeat([]byte("object store baseline value. "), 30) // 870 B -> 4 units
	p, err := naiveUpdate(s, "doc", 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Costs().StrandsSynthesized; got != 4*15 {
		t.Errorf("strands %d want 60", got)
	}
	res, err := p.Read(blockstore.ReadRequest{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Content) != 4 {
		t.Errorf("read back %d units want 4", len(res.Content))
	}
	got := bytes.Join(res.Content, nil)
	if len(got) < len(data) || !bytes.Equal(got[:len(data)], data) {
		t.Fatal("round trip mismatch")
	}
}

func TestBaselineNaiveUpdateCosts(t *testing.T) {
	// Section 5.1 / 7.5: a naïve update resynthesizes the whole object
	// under a fresh primer pair, however small the change.
	s := newBaselineStore(t)
	data := bytes.Repeat([]byte("v1 "), 200) // 600 B -> 3 units -> 45 strands
	if _, err := naiveUpdate(s, "doc", 0, data); err != nil {
		t.Fatal(err)
	}
	before := s.Costs()
	species := s.Tube().Len()
	updated := append([]byte("v2 "), data[3:]...) // tiny logical change
	p, err := naiveUpdate(s, "doc", 1, updated)
	if err != nil {
		t.Fatal(err)
	}
	delta := s.Costs().Sub(before)
	if delta.StrandsSynthesized != 45 {
		t.Errorf("naïve update synthesized %d strands, want full copy 45", delta.StrandsSynthesized)
	}
	if delta.PrimerPairsUsed != 1 {
		t.Errorf("naïve update took %d primer pairs, want 1", delta.PrimerPairsUsed)
	}
	// The old copy stays in the tube beside the new one.
	if species != 45 || s.Tube().Len() != 90 {
		t.Errorf("tube species %d then %d, want 45 then 90 (old + new copy)", species, s.Tube().Len())
	}
	res, err := p.Read(blockstore.ReadRequest{All: true})
	if err != nil {
		t.Fatal(err)
	}
	got := bytes.Join(res.Content, nil)
	if len(got) < len(updated) || !bytes.Equal(got[:len(updated)], updated) {
		t.Fatal("new generation does not read back the updated bytes")
	}
	if tail := got[len(updated):]; len(bytes.Trim(tail, "\x00")) != 0 {
		t.Errorf("unit padding reads back as %q, want zeros", tail)
	}
}

func TestBaselineGenerationWrittenOnce(t *testing.T) {
	s := newBaselineStore(t)
	if _, err := naiveUpdate(s, "doc", 0, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := naiveUpdate(s, "doc", 0, []byte("2")); err == nil {
		t.Error("generation 0 written twice")
	}
}

func TestBaselinePrimerExhaustion(t *testing.T) {
	s := newBaselineStore(t)
	for gen := 0; gen < 2; gen++ {
		if _, err := naiveUpdate(s, "doc", gen, []byte("x")); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
	}
	if _, err := naiveUpdate(s, "doc", 2, []byte("y")); !errors.Is(err, blockstore.ErrNoPrimers) {
		t.Errorf("third generation on 4 primers: %v, want ErrNoPrimers", err)
	}
}
