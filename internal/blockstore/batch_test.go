package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dnastore/internal/update"
)

// stageMixedBatch stages the test workload: twelve writes plus enough
// updates on block 3 to chain into an overflow log block, and a couple
// of direct-slot updates elsewhere.
func stageMixedBatch(p *Partition) *Batch {
	b := p.Batch()
	for blk := 0; blk < 12; blk++ {
		b.Write(blk, bytes.Repeat([]byte{byte('a' + blk)}, 40+blk))
	}
	for i := 0; i < 5; i++ {
		b.Update(3, update.Patch{InsertPos: 0, Insert: []byte{byte('A' + i)}})
	}
	b.Update(9, update.Patch{DeleteStart: 0, DeleteCount: 2})
	return b
}

// TestBatchDeterministicAcrossWorkers pins the write engine's
// determinism contract: one Batch.Apply must leave a byte-identical
// tube — checksummed over species order, sequences and exact abundance
// bits — and identical metadata and cost counters at workers 1, 4 and
// GOMAXPROCS.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	type result struct {
		digest   [32]byte
		costs    Costs
		versions int
	}
	run := func(workers int) result {
		cfg := testConfig()
		cfg.Workers = workers
		s := newTestStore(t, cfg)
		p, err := s.CreatePartition("alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := stageMixedBatch(p).Apply(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return result{digest: s.TubeDigest(), costs: s.Costs(), versions: p.Versions(3)}
	}
	base := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if got.digest != base.digest {
			t.Errorf("workers=%d: tube digest differs from workers=1", workers)
		}
		if got.costs != base.costs {
			t.Errorf("workers=%d: costs %+v, workers=1 %+v", workers, got.costs, base.costs)
		}
		if got.versions != base.versions {
			t.Errorf("workers=%d: block 3 versions %d vs %d", workers, got.versions, base.versions)
		}
	}
}

// TestBatchRoundTrip checks that a mixed batch — writes, direct-slot
// updates, an in-batch overflow chain — reads back with all patches
// applied in staging order.
func TestBatchRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := stageMixedBatch(p).Apply(); err != nil {
		t.Fatal(err)
	}
	got, err := readContent(p.Read(ReadRequest{Blocks: []int{3, 9, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	// Five front inserts stack in reverse over the original 'd' run.
	if !bytes.HasPrefix(got[0], []byte("EDCBAddd")) {
		t.Errorf("block 3 content %q", got[0][:8])
	}
	if !bytes.HasPrefix(got[1], []byte("jjj")) || len(got[1]) != p.BlockSize()-2 {
		t.Errorf("block 9 content %q (len %d)", got[1][:4], len(got[1]))
	}
	if !bytes.HasPrefix(got[2], bytes.Repeat([]byte{'a'}, 40)) {
		t.Errorf("block 0 content %q", got[2][:4])
	}
	if p.Versions(3) != 3 {
		t.Errorf("block 3 versions %d want 3 (2 direct + overflow pointer)", p.Versions(3))
	}
}

// TestBatchMatchesIncrementalContent pins the batch plan against the
// per-op path: the same op sequence applied as one batch and as
// individual WriteBlock/UpdateBlock calls must yield identical decoded
// content and identical version metadata (the physical tubes differ in
// noise draws, so only the logical state is compared).
func TestBatchMatchesIncrementalContent(t *testing.T) {
	build := func(batched bool) (*Store, *Partition) {
		s := newTestStore(t, testConfig())
		p, err := s.CreatePartition("alice")
		if err != nil {
			t.Fatal(err)
		}
		if batched {
			if err := stageMixedBatch(p).Apply(); err != nil {
				t.Fatal(err)
			}
			return s, p
		}
		for blk := 0; blk < 12; blk++ {
			if err := p.WriteBlock(blk, bytes.Repeat([]byte{byte('a' + blk)}, 40+blk)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := p.UpdateBlock(3, update.Patch{InsertPos: 0, Insert: []byte{byte('A' + i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.UpdateBlock(9, update.Patch{DeleteStart: 0, DeleteCount: 2}); err != nil {
			t.Fatal(err)
		}
		return s, p
	}
	sb, pb := build(true)
	si, pi := build(false)
	if cb, ci := sb.Costs(), si.Costs(); cb != ci {
		t.Errorf("costs diverged: batch %+v, incremental %+v", cb, ci)
	}
	for _, blk := range []int{0, 3, 9, 11} {
		if vb, vi := pb.Versions(blk), pi.Versions(blk); vb != vi {
			t.Errorf("block %d versions: batch %d, incremental %d", blk, vb, vi)
		}
		a, err := pb.ReadBlock(blk)
		if err != nil {
			t.Fatalf("batch read %d: %v", blk, err)
		}
		b, err := pi.ReadBlock(blk)
		if err != nil {
			t.Fatalf("incremental read %d: %v", blk, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("block %d content diverged between batch and incremental", blk)
		}
	}
}

// TestBatchConflictReporting pins the typed per-op error surface: every
// failing op of a batch is reported with its staging index and sentinel,
// and a failing batch commits nothing.
func TestBatchConflictReporting(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlock(7, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	before := s.Costs()

	// Double write inside the batch, a write of an already-written
	// block, and an update of a never-written block: three failures in
	// one report.
	err = p.Batch().
		Write(0, []byte("first")).
		Write(0, []byte("second")).
		Write(7, []byte("taken")).
		Update(30, update.Patch{Insert: []byte("x")}).
		Apply()
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("expected BatchError, got %v", err)
	}
	if len(be.Ops) != 3 {
		t.Fatalf("reported %d op errors, want 3: %v", len(be.Ops), be)
	}
	wants := []struct {
		index, block int
		sentinel     error
	}{
		{1, 0, ErrBlockWritten},
		{2, 7, ErrBlockWritten},
		{3, 30, ErrBlockNotFound},
	}
	for i, want := range wants {
		op := be.Ops[i]
		if op.Index != want.index || op.Block != want.block || !errors.Is(op, want.sentinel) {
			t.Errorf("op error %d = {index %d, block %d, %v}, want {index %d, block %d, %v}",
				i, op.Index, op.Block, op.Err, want.index, want.block, want.sentinel)
		}
	}
	// errors.Is reaches the sentinels through the aggregate too.
	if !errors.Is(err, ErrBlockWritten) || !errors.Is(err, ErrBlockNotFound) {
		t.Error("BatchError does not unwrap to its sentinels")
	}
	// Atomicity: op 0 was valid but must not have committed.
	if _, err := p.ReadBlock(0); !errors.Is(err, ErrBlockNotFound) {
		t.Errorf("failed batch leaked block 0: %v", err)
	}
	if after := s.Costs(); after != before {
		t.Errorf("failed batch charged costs: before %+v after %+v", before, after)
	}
}

// TestFailedBatchIsSideEffectFree pins seed-only reproducibility in the
// presence of failures: a batch (or single op) that fails planning must
// not consume noise-stream draws, so a program with failed operations
// builds the same tube as one without them.
func TestFailedBatchIsSideEffectFree(t *testing.T) {
	build := func(withFailures bool) *Store {
		s := newTestStore(t, testConfig())
		p, err := s.CreatePartition("alice")
		if err != nil {
			t.Fatal(err)
		}
		if withFailures {
			if err := p.UpdateBlock(5, update.Patch{Insert: []byte("x")}); !errors.Is(err, ErrBlockNotFound) {
				t.Fatalf("update of unwritten block: %v", err)
			}
			err := p.Batch().Write(0, []byte("a")).Write(0, []byte("b")).Apply()
			if !errors.Is(err, ErrBlockWritten) {
				t.Fatalf("double-write batch: %v", err)
			}
		}
		if err := p.WriteBlock(0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		return s
	}
	if build(true).TubeDigest() != build(false).TubeDigest() {
		t.Error("failed operations perturbed the synthesis noise stream")
	}
}

// TestBatchWriteThenUpdate checks in-batch ordering semantics: an
// update staged after the write of the same block lands in version slot
// 1, while an update staged before it fails the whole batch.
func TestBatchWriteThenUpdate(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	err = p.Batch().
		Write(4, []byte("fresh block")).
		Update(4, update.Patch{InsertPos: 0, Insert: []byte("v1 ")}).
		Apply()
	if err != nil {
		t.Fatalf("write+update of same block in order: %v", err)
	}
	if p.Versions(4) != 1 {
		t.Errorf("versions %d want 1", p.Versions(4))
	}
	got, err := p.ReadBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("v1 fresh block")) {
		t.Errorf("content %q", got[:14])
	}

	err = p.Batch().
		Update(5, update.Patch{Insert: []byte("x")}).
		Write(5, []byte("too late")).
		Apply()
	var be *BatchError
	if !errors.As(err, &be) || len(be.Ops) != 1 || !errors.Is(be.Ops[0], ErrBlockNotFound) {
		t.Fatalf("update-before-write: %v", err)
	}
	if _, err := p.ReadBlock(5); !errors.Is(err, ErrBlockNotFound) {
		t.Error("failed batch leaked block 5")
	}
}

// TestBatchOverflowExhaustion fills the whole address space and then
// asks one batch for an overflow log block: the plan must fail with
// ErrOverflowFull before any wet work, leaving state untouched.
func TestBatchOverflowExhaustion(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	full := p.Batch()
	for blk := 0; blk < p.Blocks(); blk++ {
		full.Write(blk, []byte{byte(blk)})
	}
	if err := full.Apply(); err != nil {
		t.Fatal(err)
	}
	before := s.Costs()
	b := p.Batch()
	for i := 0; i < directUpdateSlots+1; i++ {
		b.Update(0, update.Patch{Insert: []byte{byte(i)}})
	}
	err = b.Apply()
	var be *BatchError
	if !errors.As(err, &be) || !errors.Is(err, ErrOverflowFull) {
		t.Fatalf("expected ErrOverflowFull, got %v", err)
	}
	if p.Versions(0) != 0 {
		t.Errorf("failed batch advanced versions to %d", p.Versions(0))
	}
	if after := s.Costs(); after != before {
		t.Errorf("failed batch charged costs: before %+v after %+v", before, after)
	}
}

// TestBatchCommitConflict drives the optimistic-concurrency path by
// hand: a batch staged against one snapshot must refuse to commit after
// a conflicting mutation, report ErrBatchConflict for the op whose
// block changed, and leave the interloper's state intact.
func TestBatchCommitConflict(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlock(1, []byte("stable")); err != nil {
		t.Fatal(err)
	}

	// Stage and prepare against the current table...
	b := p.Batch().Write(2, []byte("mine")).Update(1, update.Patch{Insert: []byte("u")})
	sealed, errs := b.seal()
	if errs != nil {
		t.Fatal(errs[0])
	}
	plan, errs := b.plan(sealed)
	if errs != nil {
		t.Fatal(errs[0])
	}
	if err := b.prepare(plan); err != nil {
		t.Fatal(err)
	}
	// ...then let a competing writer take block 2 and bump block 1.
	if err := p.WriteBlock(2, []byte("theirs")); err != nil {
		t.Fatal(err)
	}
	err = b.commit(plan)
	var be *BatchError
	if !errors.As(err, &be) || !errors.Is(err, ErrBatchConflict) {
		t.Fatalf("expected ErrBatchConflict, got %v", err)
	}
	if len(be.Ops) != 1 || be.Ops[0].Block != 2 || be.Ops[0].Index != 0 {
		t.Errorf("conflict blamed %+v, want op 0 on block 2", be.Ops[0])
	}
	got, err := p.ReadBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("theirs")) {
		t.Errorf("block 2 content %q, want the competing writer's", got[:6])
	}
	if p.Versions(1) != 0 {
		t.Errorf("aborted batch advanced block 1 to version %d", p.Versions(1))
	}

	// The allocator check: a plan that reserved a log block must refuse
	// to commit once another update moved nextOverflow.
	for i := 0; i < directUpdateSlots; i++ {
		if err := p.UpdateBlock(1, update.Patch{Insert: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	b2 := p.Batch().Update(1, update.Patch{Insert: []byte("over")})
	sealed2, errs2 := b2.seal()
	if errs2 != nil {
		t.Fatal(errs2[0])
	}
	plan2, errs2 := b2.plan(sealed2)
	if errs2 != nil {
		t.Fatal(errs2[0])
	}
	if err := b2.prepare(plan2); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(2, update.Patch{Insert: []byte("zz")}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(2, update.Patch{Insert: []byte("zz")}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(2, update.Patch{Insert: []byte("zz")}); err != nil { // allocates a log block
		t.Fatal(err)
	}
	if err := b2.commit(plan2); !errors.Is(err, ErrBatchConflict) {
		t.Fatalf("allocator conflict not detected: %v", err)
	}
}

// TestBatchCommitPreservesAllocator pins the stale-snapshot fix: a
// batch that allocated no log blocks must not install its snapshot's
// overflow allocator over a concurrent batch's allocation, or every
// later overflow would land on an already-written block.
func TestBatchCommitPreservesAllocator(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlocks(map[int][]byte{0: []byte("zero"), 1: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	// Stage a non-allocating batch against the current allocator...
	b := p.Batch().Write(2, []byte("disjoint"))
	sealed, errs := b.seal()
	if errs != nil {
		t.Fatal(errs[0])
	}
	plan, errs := b.plan(sealed)
	if errs != nil {
		t.Fatal(errs[0])
	}
	if err := b.prepare(plan); err != nil {
		t.Fatal(err)
	}
	// ...while a competing update chain allocates a log block.
	for i := 0; i < directUpdateSlots+1; i++ {
		if err := p.UpdateBlock(0, update.Patch{Insert: []byte{byte('a' + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.commit(plan); err != nil {
		t.Fatalf("disjoint batch must commit: %v", err)
	}
	// Block 1 can still overflow: the allocator was not rolled back onto
	// block 0's log block.
	for i := 0; i < directUpdateSlots+1; i++ {
		if err := p.UpdateBlock(1, update.Patch{Insert: []byte{byte('A' + i)}}); err != nil {
			t.Fatalf("allocator rolled back: %v", err)
		}
	}
	got, err := p.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("CBAone")) {
		t.Errorf("block 1 content %q", got[:6])
	}
}

// TestConcurrentSingleOpUpdates pins apply1's retry semantics: two
// UpdateBlock calls racing on one block serialized on the partition
// mutex before the batch engine and must still both succeed, landing in
// consecutive version slots.
func TestConcurrentSingleOpUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlock(0, []byte("base")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := p.UpdateBlock(0, update.Patch{InsertPos: 0, Insert: []byte{byte('x' + g)}}); err != nil {
				errs <- fmt.Errorf("updater %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p.Versions(0) != 2 {
		t.Errorf("versions %d want 2 (both racing updates must land)", p.Versions(0))
	}
}

// TestBatchReuse pins the single-use contract.
func TestBatchReuse(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	b := p.Batch().Write(0, []byte("once"))
	if err := b.Apply(); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(); err == nil {
		t.Error("second Apply accepted")
	}
	if err := p.Batch().Apply(); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestWriteBlocksAndUpdateBlocks covers the convenience wrappers:
// map-staged writes commit in ascending block order, slice-staged
// patches in slice order.
func TestWriteBlocksAndUpdateBlocks(t *testing.T) {
	s := newTestStore(t, testConfig())
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlocks(nil); err != nil {
		t.Errorf("empty WriteBlocks: %v", err)
	}
	err = p.WriteBlocks(map[int][]byte{
		8: []byte("eight"), 2: []byte("two"), 5: []byte("five"),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.UpdateBlocks([]BlockPatch{
		{Block: 2, Patch: update.Patch{InsertPos: 0, Insert: []byte("p1 ")}},
		{Block: 2, Patch: update.Patch{InsertPos: 0, Insert: []byte("p2 ")}},
		{Block: 8, Patch: update.Patch{DeleteStart: 0, DeleteCount: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := readContent(p.Read(ReadRequest{Blocks: []int{2, 5, 8}}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got[0], []byte("p2 p1 two")) {
		t.Errorf("block 2 %q", got[0][:9])
	}
	if !bytes.HasPrefix(got[1], []byte("five")) {
		t.Errorf("block 5 %q", got[1][:4])
	}
	if !bytes.HasPrefix(got[2], []byte("ight")) {
		t.Errorf("block 8 %q", got[2][:4])
	}
	if p.Versions(2) != 2 {
		t.Errorf("block 2 versions %d", p.Versions(2))
	}
}

// TestBatchConcurrent hammers the optimistic commit path from several
// goroutines — disjoint batches, overlapping readers, and deliberately
// colliding single-block writes; run with -race. Every error must be a
// typed conflict, and every committed block must read back exactly.
func TestBatchConcurrent(t *testing.T) {
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
	if err := p.WriteBlocks(map[int][]byte{0: []byte("r0"), 1: []byte("r1")}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	// Disjoint batch writers: blocks 10-15 and 20-25.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := p.Batch()
			for i := 0; i < 6; i++ {
				blk := 10 + 10*g + i
				b.Write(blk, []byte{byte(blk)})
			}
			b.Update(10+10*g, update.Patch{InsertPos: 0, Insert: []byte("u")})
			if err := b.Apply(); err != nil {
				errs <- fmt.Errorf("batch writer %d: %v", g, err)
			}
		}(g)
	}
	// Colliding writers: both stage block 40; exactly the loser may fail,
	// and only with a typed write-once or conflict error.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := p.Batch().Write(40, []byte{byte('A' + g)}).Apply()
			if err != nil && !errors.Is(err, ErrBlockWritten) && !errors.Is(err, ErrBatchConflict) {
				errs <- fmt.Errorf("colliding writer %d: untyped error %v", g, err)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.ReadBlock(0); err != nil {
			errs <- fmt.Errorf("reader: %v", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, blk := range []int{10, 15, 20, 25, 40} {
		got, err := p.ReadBlock(blk)
		if err != nil {
			t.Fatalf("block %d after concurrent batches: %v", blk, err)
		}
		want := byte(blk)
		if blk == 10 || blk == 20 {
			want = 'u'
		}
		if blk == 40 {
			if got[0] != 'A' && got[0] != 'B' {
				t.Errorf("block 40 content %q", got[0])
			}
			continue
		}
		if got[0] != want {
			t.Errorf("block %d content %d want %d", blk, got[0], want)
		}
	}
}
