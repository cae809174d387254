package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"dnastore/internal/decode"
	"dnastore/internal/primer"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// libraryStore builds a store shaped like the benchmark's library
// stores: the paper's configuration at twice its read depth, depth-3
// partitions each filled with 48 blocks of random full-size payloads,
// and a few patches so reads resolve update versions and an overflow
// chain. It returns the store and, per partition, every data block's
// current content.
func libraryStore(t testing.TB, seed uint64, parts int) (*Store, []*Partition, []map[int][]byte) {
	t.Helper()
	lib := primer.NewLibrary(primer.DefaultConstraints())
	lib.Search(rng.New(1234), 2*parts, 400000)
	if lib.Len() < 2*parts {
		t.Fatalf("primer search found only %d primers", lib.Len())
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = 1
	cfg.CoverageDepth = 20
	cfg.SetTreeDepth(3)
	s, err := New(cfg, lib.Primers())
	if err != nil {
		t.Fatal(err)
	}
	data := rng.New(seed)
	var ps []*Partition
	var want []map[int][]byte
	for pi := 0; pi < parts; pi++ {
		p, err := s.CreatePartition(fmt.Sprintf("p%d", pi))
		if err != nil {
			t.Fatal(err)
		}
		content := make(map[int][]byte, 48)
		for b := 0; b < 48; b++ {
			buf := make([]byte, p.BlockSize())
			for i := range buf {
				buf[i] = byte(data.Intn(256))
			}
			content[b] = buf
		}
		if err := p.WriteBlocks(content); err != nil {
			t.Fatal(err)
		}
		// One in-slot update on block 5, and four on block 9 so its last
		// version slot chains into an overflow log block.
		for _, u := range []struct{ block, n int }{{5, 1}, {9, 4}} {
			for i := 0; i < u.n; i++ {
				pt := update.Patch{DeleteStart: 8 * i, DeleteCount: 4, InsertPos: 8 * i, Insert: []byte{byte(i), 1, 2, 3}}
				if err := p.UpdateBlock(u.block, pt); err != nil {
					t.Fatal(err)
				}
				if content[u.block], err = pt.Apply(content[u.block]); err != nil {
					t.Fatal(err)
				}
			}
		}
		ps = append(ps, p)
		want = append(want, content)
	}
	return s, ps, want
}

// TestStrictReadsReturnNoWrongBytes is the silent-corruption meter for
// the content ladder's acceptance attempts. Every finalize at
// ContentFloor is one more chance for a unit's seal to accept wrong
// bytes, so strict point and range reads of benchmark-shaped library
// stores are checked against the written content. A read that returns
// content with a nil error must return the right bytes; typed failures
// are counted apart and logged, as are the reads whose first rung did
// not decode.
func TestStrictReadsReturnNoWrongBytes(t *testing.T) {
	const (
		pointReads = 1000
		rangeReads = 100
		span       = 4
	)
	if raceEnabled {
		t.Skip("a thousand reads under the race detector take minutes")
	}
	s, parts, want := libraryStore(t, 29, 2)
	keys := rng.New(31)
	var wrong, typed, escalated int
	check := func(what string, got []byte, err error, expect []byte) {
		switch {
		case err != nil:
			if !errors.Is(err, decode.ErrDecode) {
				t.Fatalf("%s: untyped failure %v", what, err)
			}
			typed++
			t.Logf("%s: %v", what, err)
		case !bytes.Equal(got, expect):
			wrong++
			t.Errorf("%s: wrong bytes with a nil error", what)
		}
	}
	for i := 0; i < pointReads+rangeReads; i++ {
		pi := keys.Intn(len(parts))
		p := parts[pi]
		before := s.StreamStats().Reopens
		if i < pointReads {
			b := keys.Intn(48)
			got, err := p.ReadBlock(b)
			check(fmt.Sprintf("p%d block %d", pi, b), got, err, want[pi][b])
		} else {
			lo := keys.Intn(48 - span + 1)
			name := fmt.Sprintf("p%d range [%d, %d]", pi, lo, lo+span-1)
			if got, err := p.ReadRange(lo, lo+span-1); err != nil {
				check(name, nil, err, nil)
			} else {
				for k := range span {
					check(fmt.Sprintf("%s block %d", name, lo+k), got[k], nil, want[pi][lo+k])
				}
			}
		}
		if s.StreamStats().Reopens > before {
			escalated++
		}
	}
	t.Logf("%d strict reads (%d point, %d range of %d blocks): %d wrong with a nil error, %d typed failures, %d escalated past a first rung (%d reopens)",
		pointReads+rangeReads, pointReads, rangeReads, span, wrong, typed, escalated, s.StreamStats().Reopens)
	if wrong != 0 {
		t.Fatalf("%d reads returned wrong bytes with a nil error", wrong)
	}
}
