package blockstore

import (
	"reflect"
	"sync"
	"testing"

	"dnastore/internal/decay"
)

// TestScrubEmptyPartition pins the degenerate maintenance pass: a
// partition with nothing written probes nothing, flags nothing, and
// costs nothing.
func TestScrubEmptyPartition(t *testing.T) {
	s := newTestStore(t, testConfig())
	if _, err := s.CreatePartition("empty"); err != nil {
		t.Fatal(err)
	}
	report, err := s.Scrub(DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if report.BlocksProbed != 0 || report.BlocksFlagged != 0 || len(report.Flagged) != 0 {
		t.Errorf("empty partition scrubbed something: %+v", report)
	}
	if report.Cost != (Costs{}) {
		t.Errorf("empty scrub charged costs: %+v", report.Cost)
	}
}

// TestScrubHealthyTubeIsCheap pins that scrubbing an undamaged store
// is probe-only: nothing is flagged or repaired and no synthesis is
// charged — the pass costs sequencing reads and PCR reactions alone.
// An empty sibling partition rides along to check the mixed walk.
func TestScrubHealthyTubeIsCheap(t *testing.T) {
	s, _ := buildSeeded(t, 1)
	if _, err := s.CreatePartition("idle"); err != nil {
		t.Fatal(err)
	}
	before := s.TubeDigest()
	report, err := s.Scrub(DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if report.BlocksProbed != 12 {
		t.Errorf("probed %d blocks, want the 12 written ones", report.BlocksProbed)
	}
	if report.BlocksFlagged != 0 || report.Repaired != 0 || report.Boosts != 0 || report.Resyntheses != 0 {
		t.Errorf("healthy tube triggered repairs: %+v", report)
	}
	// Probes still synthesize elongated primers on a block's first
	// access; zero strand synthesis is what distinguishes a repair-free
	// pass.
	if report.Cost.StrandsSynthesized != 0 {
		t.Errorf("probe-only pass synthesized strands: %+v", report.Cost)
	}
	if report.Cost.ReadsSequenced == 0 || report.Cost.PCRReactions == 0 {
		t.Errorf("probe pass reported zero wet costs: %+v", report.Cost)
	}
	if s.TubeDigest() != before {
		t.Error("repair-free scrub perturbed the tube")
	}
}

// TestScrubConcurrentWithReads runs a maintenance pass while readers
// hammer the same partition. Run under -race this pins the locking
// between the scrubber's probes and the read engine; every concurrent
// read must still return correct content.
func TestScrubConcurrentWithReads(t *testing.T) {
	s, p := buildSeeded(t, 4)
	want := seededContents()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		report, err := s.Scrub(DefaultScrubPolicy())
		if err != nil {
			t.Errorf("concurrent scrub failed: %v", err)
			return
		}
		if report.BlocksProbed != 12 {
			t.Errorf("concurrent scrub probed %d blocks", report.BlocksProbed)
		}
	}()
	const readers = 3
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, b := range []int{g, 3 + g, 9} {
				got, err := p.ReadBlock(b)
				if err != nil {
					t.Errorf("reader %d block %d: %v", g, b, err)
					continue
				}
				if !hasContent(got, want[b]) {
					t.Errorf("reader %d block %d content wrong during scrub", g, b)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestScrubCostCountsEjections pins that a scrub report's cost is the
// whole change in the store's counters, ejected molecules included: a
// streaming probe of an aged tube ejects junk from the pore, and the
// report must charge it.
func TestScrubCostCountsEjections(t *testing.T) {
	prof := decay.Accelerated()
	s, _ := buildAged(t, 1, &prof)
	if _, err := s.Advance(5); err != nil {
		t.Fatal(err)
	}
	before := s.Costs()
	report, err := s.Scrub(DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	delta := s.Costs().Sub(before)
	if delta.ReadsEjected == 0 {
		t.Fatal("streaming scrub ejected nothing; the test no longer exercises ejection")
	}
	if report.Cost != delta {
		t.Errorf("report cost %+v, store counters moved by %+v", report.Cost, delta)
	}
}

// TestCostsSubCoversEveryField sets every Costs field to a distinct
// value, so a field added later and left out of Sub fails here.
func TestCostsSubCoversEveryField(t *testing.T) {
	var a, b Costs
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(100 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	d := reflect.ValueOf(a.Sub(b))
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Int(), int64(99*(i+1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", d.Type().Field(i).Name, got, want)
		}
	}
}
