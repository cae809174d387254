package blockstore

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"dnastore/internal/update"
)

// readContent keeps a Read's content, for tests that compare plain
// reads.
func readContent(res ReadResult, err error) ([][]byte, error) { return res.Content, err }

// readReports splits a Read into content and Health reports.
func readReports(res ReadResult, err error) ([][]byte, []Health, error) {
	return res.Content, res.Health, err
}

// readOne unpacks a one-block Read.
func readOne(res ReadResult, err error) ([]byte, Health, error) {
	if err != nil {
		return nil, Health{}, err
	}
	return res.Content[0], res.Health[0], nil
}

// TestPlainReadsRefuseMissingPatch pins the silent-stale-read fix: when
// every strand of one patch unit is gone, plain reads must fail with a
// coverage error instead of returning the block without that patch.
func TestPlainReadsRefuseMissingPatch(t *testing.T) {
	if testing.Short() {
		t.Skip("wet-lab simulation is slow")
	}
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	const b = 5
	for blk := 3; blk <= 7; blk++ {
		if err := p.WriteBlock(blk, bytes.Repeat([]byte{byte('a' + blk)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := p.UpdateBlock(b, update.Patch{InsertPos: 0, Insert: []byte{byte('0' + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	tube := s.Tube()
	zeroed := 0
	for i := 0; i < tube.Len(); i++ {
		if m := tube.MetaAt(i); m.Partition == "alice" && m.Block == b && m.Version == 2 {
			tube.SetAbundance(i, 0)
			zeroed++
		}
	}
	if zeroed == 0 {
		t.Fatal("no version-2 species found")
	}
	check := func(name string, content any, err error) {
		t.Helper()
		if !errors.Is(err, ErrInsufficientCoverage) {
			t.Errorf("%s: err %v, want ErrInsufficientCoverage", name, err)
		}
		switch c := content.(type) {
		case []byte:
			if c != nil {
				t.Errorf("%s returned content %q with a missing patch", name, c[:8])
			}
		case [][]byte:
			if c != nil {
				t.Errorf("%s returned %d blocks with a missing patch", name, len(c))
			}
		}
	}
	c, err := p.ReadBlock(b)
	check("ReadBlock", c, err)
	cs, err := readContent(p.Read(ReadRequest{Blocks: []int{4, b, 6}}))
	check("ReadBlocks", cs, err)
	cs, err = p.ReadRange(3, 7)
	check("ReadRange", cs, err)
	cs, err = readContent(p.Read(ReadRequest{All: true}))
	check("ReadAll", cs, err)
}

// TestLongOverflowChainReadable reads a block whose 30 updates span a
// ten-log-block overflow chain: the chase's bound comes from the
// partition's overflow table, not a fixed hop count.
func TestLongOverflowChainReadable(t *testing.T) {
	if testing.Short() {
		t.Skip("wet-lab simulation is slow")
	}
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	const b = 2
	for blk := 0; blk < 4; blk++ {
		if err := p.WriteBlock(blk, bytes.Repeat([]byte{byte('a' + blk)}, 60)); err != nil {
			t.Fatal(err)
		}
	}
	want := make([]byte, p.BlockSize())
	copy(want, bytes.Repeat([]byte{'a' + b}, 60))
	for i := 0; i < 30; i++ {
		pt := update.Patch{DeleteStart: i, DeleteCount: 1, InsertPos: i, Insert: []byte{byte('A' + i)}}
		if err := p.UpdateBlock(b, pt); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if want, err = pt.Apply(want); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.ReadBlock(b)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadBlock: err %v, content %q, want %q", err, got[:min(len(got), 32)], want[:32])
	}
	rng, err := p.ReadRange(1, 3)
	if err != nil || len(rng) != 3 || !bytes.Equal(rng[1], want) {
		t.Fatalf("ReadRange: err %v, %d blocks", err, len(rng))
	}
	cs, hs, err := readReports(p.Read(ReadRequest{Blocks: []int{b}, Mode: ReadHealth}))
	if err != nil || !hs[0].Recovered || !bytes.Equal(cs[0], want) {
		t.Fatalf("ReadBlocksHealth: err %v, health %+v", err, hs[0])
	}
}

// TestWarmReactionBytes pins reaction recycling end to end: once one
// read of a block has run, reading it again reuses the reaction's
// tube-sized storage — the PCR tables, the stream's alias table, the
// amplified pool's segments, chunks and index — so the second read
// allocates at most warmReadFraction of the first. Without recycling
// the second read still allocated 65% of the first (its binding lookups
// hit the cache); with it, about 26%. The collector is off so the
// released storage is still there to reuse, and the free lists are
// emptied by a collection before the first read.
func TestWarmReactionBytes(t *testing.T) {
	const warmReadFraction = 0.4
	cfg := testConfig()
	cfg.Workers = 1
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("warm")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[int][]byte{}
	for b := 0; b < 64; b++ {
		blocks[b] = bytes.Repeat([]byte{byte('a' + b%26)}, 60)
	}
	if err := p.WriteBlocks(blocks); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	read := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := p.ReadBlock(5)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got[:60], blocks[5]) {
			t.Fatalf("ReadBlock(5): %v", err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	first := read()
	second := read()
	t.Logf("first read %d bytes, second %d (%.2f)", first, second, float64(second)/float64(first))
	if float64(second) > warmReadFraction*float64(first) {
		t.Errorf("second read of a block allocated %d bytes, over %.0f%% of the first read's %d",
			second, 100*warmReadFraction, first)
	}
}
