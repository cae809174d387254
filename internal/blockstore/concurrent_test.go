package blockstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dnastore/internal/update"
)

// buildSeeded creates a store with the given worker count and writes a
// deterministic data set: blocks 0..11 plus two updates on block 3 and
// one on block 9.
func buildSeeded(t testing.TB, workers int) (*Store, *Partition) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 12; b++ {
		content := bytes.Repeat([]byte{byte('a' + b)}, 40+b)
		if err := p.WriteBlock(b, content); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.UpdateBlock(3, update.Patch{InsertPos: 0, Insert: []byte("v1 ")}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(3, update.Patch{InsertPos: 0, Insert: []byte("v2 ")}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(9, update.Patch{DeleteStart: 0, DeleteCount: 2}); err != nil {
		t.Fatal(err)
	}
	return s, p
}

func equalBlockSets(t *testing.T, what string, a, b [][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d blocks", what, len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s: block slot %d differs", what, i)
		}
	}
}

// TestParallelMatchesSequential pins the read engine's determinism
// contract: workers=1 and workers=8 must produce byte-identical outputs
// and identical physical-cost counters for every read path.
func TestParallelMatchesSequential(t *testing.T) {
	s1, p1 := buildSeeded(t, 1)
	s8, p8 := buildSeeded(t, 8)

	r1, err := p1.ReadRange(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := p8.ReadRange(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "ReadRange", r1, r8)

	b1, err := readContent(p1.Read(ReadRequest{Blocks: []int{7, 3, 9, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	b8, err := readContent(p8.Read(ReadRequest{Blocks: []int{7, 3, 9, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "ReadBlocks", b1, b8)

	a1, err := readContent(p1.Read(ReadRequest{All: true}))
	if err != nil {
		t.Fatal(err)
	}
	a8, err := readContent(p8.Read(ReadRequest{All: true}))
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "ReadAll", a1, a8)

	if c1, c8 := s1.Costs(), s8.Costs(); c1 != c8 {
		t.Errorf("cost counters diverged:\n workers=1 %+v\n workers=8 %+v", c1, c8)
	}
}

// TestReadBlocksMatchesReadBlock pins the batched path against the
// one-by-one path on a fresh identical store.
func TestReadBlocksMatchesReadBlock(t *testing.T) {
	_, p1 := buildSeeded(t, 1)
	_, p2 := buildSeeded(t, 4)
	order := []int{5, 3, 9}
	var single [][]byte
	for _, b := range order {
		got, err := p1.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, got)
	}
	batched, err := readContent(p2.Read(ReadRequest{Blocks: order}))
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "ReadBlocks vs ReadBlock", single, batched)
}

func TestReadBlocksValidation(t *testing.T) {
	_, p := buildSeeded(t, 2)
	if _, err := readContent(p.Read(ReadRequest{Blocks: []int{0, 99}})); err == nil {
		t.Error("out-of-range block accepted")
	}
	if _, err := readContent(p.Read(ReadRequest{Blocks: []int{0, 30}})); err == nil {
		t.Error("unwritten block accepted")
	}
	out, err := readContent(p.Read(ReadRequest{}))
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %d results", err, len(out))
	}
}

// TestConcurrentReaders hammers one store from many goroutines; run
// with -race. Every result must still be exact.
func TestConcurrentReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("wet-lab simulation is slow")
	}
	_, p := buildSeeded(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			block := g % 12
			want := byte('a' + block)
			got, err := p.ReadBlock(block)
			if err != nil {
				errs <- fmt.Errorf("reader %d: %v", g, err)
				return
			}
			if block != 3 && block != 9 && got[0] != want {
				errs <- fmt.Errorf("reader %d: block %d content %q", g, block, got[0])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.ReadRange(4, 8); err != nil {
			errs <- fmt.Errorf("range reader: %v", err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			p.Versions(i % 12)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentWritersAndReaders mixes writes, updates and reads of
// disjoint blocks from multiple goroutines; run with -race.
func TestConcurrentWritersAndReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("wet-lab simulation is slow")
	}
	cfg := testConfig()
	cfg.Workers = 4
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if err := p.WriteBlock(b, []byte{byte('r' + b)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	// Writers populate fresh blocks; updaters patch their own block;
	// readers read the stable prefix.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				b := 10 + g*3 + i
				if err := p.WriteBlock(b, []byte{byte(b)}); err != nil {
					errs <- fmt.Errorf("writer %d: %v", g, err)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.UpdateBlock(2, update.Patch{InsertPos: 0, Insert: []byte("x")}); err != nil {
			errs <- fmt.Errorf("updater: %v", err)
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := p.ReadBlock(g)
			if err != nil {
				errs <- fmt.Errorf("reader %d: %v", g, err)
				return
			}
			if got[0] != byte('r'+g) {
				errs <- fmt.Errorf("reader %d: content %q", g, got[0])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Everything written concurrently must now read back exactly.
	for b := 10; b < 16; b++ {
		got, err := p.ReadBlock(b)
		if err != nil {
			t.Fatalf("block %d written concurrently: %v", b, err)
		}
		if got[0] != byte(b) {
			t.Errorf("block %d content %d", b, got[0])
		}
	}
}

// TestOverflowChainCostsDeterministic pins the front-end charging
// contract in its hardest corner: overflow-chain retrievals happen
// inside (possibly parallel) decode work, but their primers are charged
// — through a capacity-bounded cache — in the serial planning phase, so
// cost counters and cache state match at any worker count.
func TestOverflowChainCostsDeterministic(t *testing.T) {
	build := func(workers int) (*Store, *Partition, *PrimerCache) {
		cfg := testConfig()
		cfg.Workers = workers
		s := newTestStore(t, cfg)
		p, err := s.CreatePartition("alice")
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 2; b++ {
			if err := p.WriteBlock(b, []byte{byte('a' + b)}); err != nil {
				t.Fatal(err)
			}
		}
		// Five updates push block 0 into an overflow log block.
		for i := 0; i < 5; i++ {
			if err := p.UpdateBlock(0, update.Patch{InsertPos: 0, Insert: []byte{byte('A' + i)}}); err != nil {
				t.Fatal(err)
			}
		}
		cache, err := NewPrimerCache(2, LRU)
		if err != nil {
			t.Fatal(err)
		}
		p.SetPrimerCache(cache)
		return s, p, cache
	}
	s1, p1, c1 := build(1)
	s8, p8, c8 := build(8)
	a, err := readContent(p1.Read(ReadRequest{Blocks: []int{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := readContent(p8.Read(ReadRequest{Blocks: []int{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "ReadBlocks with overflow", a, b)
	if !bytes.HasPrefix(a[0], []byte("EDCBAa")) {
		t.Errorf("overflowed block content %q", a[0][:8])
	}
	if cc1, cc8 := s1.Costs(), s8.Costs(); cc1 != cc8 {
		t.Errorf("cost counters diverged:\n workers=1 %+v\n workers=8 %+v", cc1, cc8)
	}
	if c1.Hits() != c8.Hits() || c1.Misses() != c8.Misses() {
		t.Errorf("cache state diverged: workers=1 %d/%d, workers=8 %d/%d",
			c1.Hits(), c1.Misses(), c8.Hits(), c8.Misses())
	}
}

// TestReadRangeSkipsEmptyCovers pins the satellite fix: a cover with no
// written blocks must cost nothing — no primer synthesis, no PCR, no
// sequencing. The digital front-end already knows which blocks exist.
func TestReadRangeSkipsEmptyCovers(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		if err := p.WriteBlock(b, []byte{byte(b + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	covers, err := p.Tree().Cover(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(covers) < 2 {
		t.Fatalf("range [0,31] produced %d covers; need an empty one for the regression", len(covers))
	}
	nonEmpty := 0
	for _, c := range covers {
		if c.Lo <= 3 {
			nonEmpty++
		}
	}
	before := s.Costs()
	got, err := p.ReadRange(0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("read %d blocks, want 4", len(got))
	}
	after := s.Costs()
	if d := after.PCRReactions - before.PCRReactions; d != nonEmpty {
		t.Errorf("PCR reactions %d, want %d (empty covers must not react)", d, nonEmpty)
	}
	if d := after.ElongatedPrimersSynthesized - before.ElongatedPrimersSynthesized; d != nonEmpty {
		t.Errorf("elongated primers %d, want %d (empty covers must not synthesize)", d, nonEmpty)
	}
}

// TestReadRangeCoverPrimersUseCache pins the satellite fix: range
// accesses route their partially elongated cover primers through the
// PrimerCache, so a repeated range read synthesizes nothing new.
func TestReadRangeCoverPrimersUseCache(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 8; b <= 13; b++ {
		if err := p.WriteBlock(b, []byte{byte(b)}); err != nil {
			t.Fatal(err)
		}
	}
	covers, err := p.Tree().Cover(8, 13)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewPrimerCache(16, LRU)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPrimerCache(cache)
	if _, err := p.ReadRange(8, 13); err != nil {
		t.Fatal(err)
	}
	if got := s.Costs().ElongatedPrimersSynthesized; got != len(covers) {
		t.Errorf("first range read synthesized %d primers, want %d (one per cover)", got, len(covers))
	}
	if _, err := p.ReadRange(8, 13); err != nil {
		t.Fatal(err)
	}
	if got := s.Costs().ElongatedPrimersSynthesized; got != len(covers) {
		t.Errorf("repeated range read synthesized %d primers total, want %d (all cached)", got, len(covers))
	}
	if cache.Hits() != len(covers) || cache.Misses() != len(covers) {
		t.Errorf("cache hits=%d misses=%d, want %d/%d", cache.Hits(), cache.Misses(), len(covers), len(covers))
	}
}
