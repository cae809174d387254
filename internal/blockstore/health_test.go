package blockstore

import (
	"errors"
	"fmt"
	"testing"

	"dnastore/internal/decode"
	"dnastore/internal/layout"
)

// TestHealthMarginOfFailedUnit pins RSMarginUsed for a unit that failed
// RS decoding with every slot observed: however few slots it lost or
// erased, it spent more than its parity, so the block's margin reads
// parity+1 over parity (1.25 for RS(15,11)), the margin of a unit that
// fails fast with parity+1 slots missing. A unit that spent exactly its
// parity still decodes, at margin 1.
func TestHealthMarginOfFailedUnit(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlock(3, []byte("margin")); err != nil {
		t.Fatal(err)
	}
	mol := layout.UnitMolecules
	parity := mol - layout.UnitDataMolecules
	// Twice the configured depth: the failure is not a starved one.
	reads := int(2 * float64(mol) * s.cfg.CoverageDepth)
	failed := &decode.BlockResult{Block: 3, Units: map[int]decode.Unit{0: {
		Err:   fmt.Errorf("%w: block 3 version 0", decode.ErrRSMarginExceeded),
		Reads: reads,
	}}}
	h := p.healthOf(3, failed, nil)
	if h.MissingSlots != 0 || h.ErasedSlots != 0 {
		t.Fatalf("fully observed unit reports %d missing, %d erased", h.MissingSlots, h.ErasedSlots)
	}
	if want := float64(parity+1) / float64(parity); !(h.RSMarginUsed > 1) || h.RSMarginUsed != want {
		t.Errorf("failed unit margin %v, want %v (above 1)", h.RSMarginUsed, want)
	}
	if h.Recovered || !errors.Is(h.Err, ErrRSMarginExceeded) {
		t.Errorf("failed unit: recovered %v, err %v", h.Recovered, h.Err)
	}
	spent := &decode.BlockResult{Block: 3, Units: map[int]decode.Unit{0: {
		Data:   make([]byte, p.unit.DataBytes()),
		Erased: parity,
		Reads:  reads,
	}}}
	if h := p.healthOf(3, spent, nil); h.RSMarginUsed != 1 || h.Err != nil {
		t.Errorf("unit decoded at full parity: margin %v, err %v, want 1 and nil", h.RSMarginUsed, h.Err)
	}
}
