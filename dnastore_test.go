package dnastore

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// newSystem caches one system per test binary run; primer search
// dominates construction cost.
func newSystem(t testing.TB) *System {
	t.Helper()
	sys, err := New(Options{Seed: 7, MaxPartitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPublicReadSurface pins the one-read-call API: every access goes
// through Read, with ReadBlock and ReadRange its only shorthands.
func TestPublicReadSurface(t *testing.T) {
	typ := reflect.TypeOf(&Partition{})
	var reads []string
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "Read") {
			reads = append(reads, name)
		}
	}
	if want := []string{"Read", "ReadBlock", "ReadRange"}; !slices.Equal(reads, want) {
		t.Errorf("Partition read methods %v, want %v", reads, want)
	}
}

func TestNewDefaults(t *testing.T) {
	sys := newSystem(t)
	p, err := sys.CreatePartition("docs")
	if err != nil {
		t.Fatal(err)
	}
	if p.Blocks() != 1024 {
		t.Errorf("blocks %d want 1024 (paper scale)", p.Blocks())
	}
	if p.BlockSize() != 256 {
		t.Errorf("block size %d want 256", p.BlockSize())
	}
	if p.Name() != "docs" {
		t.Errorf("name %q", p.Name())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{MaxPartitions: -1}); err == nil {
		t.Error("negative partitions accepted")
	}
	// A depth that leaves no payload must fail geometry validation.
	if _, err := New(Options{TreeDepth: 40}); err == nil {
		t.Error("absurd tree depth accepted")
	}
}

func TestEndToEnd(t *testing.T) {
	sys := newSystem(t)
	p, err := sys.CreatePartition("e2e")
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("hello, molecular world")
	if err := p.WriteBlock(3, content); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, content) {
		t.Fatalf("read %q", got[:len(content)])
	}
	if err := p.UpdateBlock(3, Patch{DeleteStart: 0, DeleteCount: 5, Insert: []byte("howdy")}); err != nil {
		t.Fatal(err)
	}
	if p.Versions(3) != 1 {
		t.Errorf("versions %d", p.Versions(3))
	}
	got, err = p.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("howdy, molecular world")) {
		t.Fatalf("updated read %q", got[:22])
	}
	costs := sys.Costs()
	if costs.StrandsSynthesized != 30 || costs.ReadsSequenced == 0 {
		t.Errorf("costs %+v", costs)
	}
}

func TestSequentialAndLookup(t *testing.T) {
	sys := newSystem(t)
	p, err := sys.CreatePartition("seq")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("sequential block data! "), 40) // ~920B
	n, err := p.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("blocks %d", n)
	}
	blocks, err := p.ReadRange(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("range blocks %d", len(blocks))
	}
	if !bytes.Equal(blocks[0][:10], data[256:266]) {
		t.Error("range content mismatch")
	}
	if _, ok := sys.Partition("seq"); !ok {
		t.Error("lookup failed")
	}
	if _, ok := sys.Partition("ghost"); ok {
		t.Error("phantom partition")
	}
}

func TestReadBlocksBatched(t *testing.T) {
	sys, err := New(Options{Seed: 7, MaxPartitions: 1, TreeDepth: 3, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.CreatePartition("batch")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]byte{2: []byte("two"), 5: []byte("five"), 11: []byte("eleven")}
	for b, content := range want {
		if err := p.WriteBlock(b, content); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Read(ReadRequest{Blocks: []int{11, 2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Content) != 3 {
		t.Fatalf("batch returned %d blocks", len(res.Content))
	}
	for i, b := range []int{11, 2, 5} {
		if res.Health[i].Block != b || !bytes.HasPrefix(res.Content[i], want[b]) {
			t.Errorf("slot %d (block %d) content %q health %+v", i, b, res.Content[i][:8], res.Health[i])
		}
	}
	if _, err := p.Read(ReadRequest{Blocks: []int{3}}); err == nil {
		t.Error("unwritten block accepted")
	}
}

// TestBatchAPI exercises the public staged-batch surface: chained
// staging, bulk convenience wrappers, per-op error reporting with the
// exported sentinels, and atomicity of a failing batch.
func TestBatchAPI(t *testing.T) {
	sys, err := New(Options{Seed: 7, MaxPartitions: 1, TreeDepth: 3, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.CreatePartition("batchapi")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlocks(map[int][]byte{4: []byte("four"), 1: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	b := p.Batch().
		Write(2, []byte("two")).
		Update(2, Patch{InsertPos: 0, Insert: []byte("v1 ")}).
		Update(4, Patch{DeleteStart: 0, DeleteCount: 1})
	if b.Len() != 3 {
		t.Errorf("staged %d ops", b.Len())
	}
	if err := b.Apply(); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlocks([]BlockPatch{
		{Block: 1, Patch: Patch{InsertPos: 0, Insert: []byte("won ")}},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Read(ReadRequest{Blocks: []int{1, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"won one", "v1 two", "our"} {
		if got := res.Content[i]; !bytes.HasPrefix(got, []byte(want)) {
			t.Errorf("slot %d content %q want prefix %q", i, got[:8], want)
		}
	}

	// Write-once violation and unwritten-block update in one failing
	// batch: typed per-op report, nothing committed.
	err = p.Batch().
		Write(2, []byte("again")).
		Update(9, Patch{Insert: []byte("x")}).
		Write(10, []byte("innocent")).
		Apply()
	var be *BatchError
	if !errors.As(err, &be) || len(be.Ops) != 2 {
		t.Fatalf("expected a 2-op BatchError, got %v", err)
	}
	if !errors.Is(be.Ops[0], ErrBlockWritten) || be.Ops[0].Block != 2 {
		t.Errorf("op error 0: %+v", be.Ops[0])
	}
	if !errors.Is(be.Ops[1], ErrBlockNotFound) || be.Ops[1].Block != 9 {
		t.Errorf("op error 1: %+v", be.Ops[1])
	}
	if _, err := p.ReadBlock(10); !errors.Is(err, ErrBlockNotFound) {
		t.Errorf("failed batch leaked block 10: %v", err)
	}

	// The classic single-op API wraps the same sentinels.
	if err := p.WriteBlock(2, []byte("dup")); !errors.Is(err, ErrBlockWritten) {
		t.Errorf("WriteBlock double write: %v", err)
	}
	if err := p.WriteBlock(64, []byte("x")); !errors.Is(err, ErrBlockRange) {
		t.Errorf("WriteBlock out of range: %v", err)
	}
}

func TestCacheIntegration(t *testing.T) {
	sys := newSystem(t)
	p, err := sys.CreatePartition("hot")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableCache(4, LRU); err != nil {
		t.Fatal(err)
	}
	if err := p.EnableCache(0, LFU); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := p.WriteBlock(0, []byte("hot block")); err != nil {
		t.Fatal(err)
	}
	before := sys.Costs().ElongatedPrimersSynthesized
	for i := 0; i < 3; i++ {
		if _, err := p.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := sys.Costs().ElongatedPrimersSynthesized - before; got != 1 {
		t.Errorf("elongated primers synthesized %d want 1 (cache)", got)
	}
}

// TestDecayStatsAccumulate checks that DecayStats is the running sum of
// what each Advance returned, and that a read adds only its mechanical
// wear on top.
func TestDecayStatsAccumulate(t *testing.T) {
	prof := AcceleratedDecay()
	sys, err := New(Options{Seed: 7, TreeDepth: 3, MaxPartitions: 1, Decay: &prof})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.CreatePartition("aging")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlock(0, []byte("aging record")); err != nil {
		t.Fatal(err)
	}
	var want DecayStats
	for _, days := range []float64{100, 250} {
		st, err := sys.Advance(days)
		if err != nil {
			t.Fatal(err)
		}
		want.Merge(st)
		if got := sys.DecayStats(); got != want {
			t.Fatalf("after %g more days: DecayStats %+v, want the Advance sum %+v", days, got, want)
		}
	}
	if want.Days != 350 || want.SpeciesAged == 0 || want.StrandsLost <= 0 {
		t.Fatalf("350 accelerated days aged nothing: %+v", want)
	}
	if _, err := p.ReadBlock(0); err != nil {
		t.Fatal(err)
	}
	got := sys.DecayStats()
	if got.Accesses == 0 || got.WearLost <= 0 {
		t.Fatalf("a read charged no wear: %+v", got)
	}
	got.Accesses, got.WearLost = want.Accesses, want.WearLost
	if got != want {
		t.Fatalf("a read changed more than wear: %+v, want %+v", got, want)
	}
}
