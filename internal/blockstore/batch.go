package blockstore

import (
	"errors"
	"fmt"
	"sort"

	"dnastore/internal/parallel"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// BlockPatch pairs a block number with an update patch, the unit of
// Partition.UpdateBlocks.
type BlockPatch struct {
	Block int
	Patch update.Patch
}

// OpError reports the failure of one staged batch operation.
type OpError struct {
	Index int    // position in staging order
	Op    string // "write" or "update"
	Block int
	Err   error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("op %d (%s block %d): %v", e.Index, e.Op, e.Block, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// BatchError aggregates every failing operation of a Batch.Apply. A
// batch commits atomically: when BatchError is returned, no operation
// of the batch — including the ones not listed — has taken effect.
type BatchError struct {
	Ops []*OpError
}

func (e *BatchError) Error() string {
	if len(e.Ops) == 1 {
		return "blockstore: batch: " + e.Ops[0].Error()
	}
	return fmt.Sprintf("blockstore: batch: %d operations failed (first: %v)", len(e.Ops), e.Ops[0])
}

// Unwrap exposes the per-op errors, so errors.Is reaches the wrapped
// sentinels (ErrBlockWritten, ErrBlockNotFound, ErrBatchConflict, ...).
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Ops))
	for i, op := range e.Ops {
		out[i] = op
	}
	return out
}

// batchOp is one staged mutation.
type batchOp struct {
	write   bool
	resynth bool // scrub repair: re-synthesize an existing unit verbatim
	block   int
	version int          // resynth target version
	data    []byte       // write payload, or resynth's sealed unit bytes
	patch   update.Patch // update patch
}

func (op batchOp) name() string {
	if op.resynth {
		return "resynth"
	}
	if op.write {
		return "write"
	}
	return "update"
}

// Batch stages write and update operations against a partition and
// commits them atomically with Apply. Staging is free of wet work; the
// whole batch synthesizes in one parallel prepare phase and lands in
// the tube under one short lock, so committing n blocks costs far less
// than n WriteBlock round-trips. A Batch is not safe for concurrent
// staging and is single-use: once Apply returns nil the batch is spent.
type Batch struct {
	p       *Partition
	ops     []batchOp
	applied bool
}

// Batch returns an empty staged batch for the partition.
func (p *Partition) Batch() *Batch { return &Batch{p: p} }

// Write stages data (at most BlockSize bytes) as the block's original
// version. The data is copied; the caller may reuse the slice.
func (b *Batch) Write(block int, data []byte) *Batch {
	b.ops = append(b.ops, batchOp{write: true, block: block, data: append([]byte(nil), data...)})
	return b
}

// Update stages a patch against the block. The block may have been
// written by an earlier Write of the same batch; version slots and
// overflow-log chains are planned across the whole batch, so several
// updates of one block land in consecutive slots.
func (b *Batch) Update(block int, patch update.Patch) *Batch {
	b.ops = append(b.ops, batchOp{block: block, patch: patch})
	return b
}

// resynthesize stages fresh physical copies of one existing
// (block, version) unit, from its already-sealed unit bytes (exactly
// DataBytes long, pad CRC included — typically a decoded
// BlockResult unit's Data). The block table is untouched: the
// commit only adds strands, restoring a decayed unit's population.
// It is the scrubber's re-synthesis repair; commit-time conflict
// detection still aborts the batch if the block mutates concurrently.
func (b *Batch) resynthesize(block, version int, sealed []byte) *Batch {
	b.ops = append(b.ops, batchOp{
		resynth: true, block: block, version: version,
		data: append([]byte(nil), sealed...),
	})
	return b
}

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// plannedUnit is one (block, version) encoding unit the plan will
// synthesize: a data write, an update patch, or an overflow pointer.
type plannedUnit struct {
	op      int // staging index of the op that produced this unit
	block   int
	version int
	data    []byte      // sealed unit payload
	src     *rng.Source // private synthesis noise, forked in plan order
	synth   *pool.Pool  // filled by the parallel prepare phase
	strands int
}

// batchPlan is the digital front-end state of an in-flight batch: an
// overlay of the block table, one planRow per block the plan reads or
// writes, plus the planned encoding units in deterministic order. A
// block's live row is captured on first contact (staging runs under
// p.mu against the live table), so planning costs O(touched blocks) and
// commit detects concurrent mutations of exactly those blocks with one
// row comparison each. Log blocks stay out of users' reach here too: an
// update of one, even one allocated earlier in the batch, fails with
// ErrBlockNotFound.
type batchPlan struct {
	p *Partition

	rows     map[int]*planRow
	baseNext int
	next     int
	nextOp   int // first op that allocated a log block, -1 if none

	units []plannedUnit
}

// newBatchPlan starts an empty plan over the live table. The caller
// must hold p.mu for the whole staging phase.
func newBatchPlan(p *Partition) *batchPlan {
	return &batchPlan{
		p:        p,
		rows:     make(map[int]*planRow),
		baseNext: p.nextOverflow,
		next:     p.nextOverflow,
		nextOp:   -1,
	}
}

func (pl *batchPlan) addUnit(op, block, version int, data []byte) {
	pl.units = append(pl.units, plannedUnit{op: op, block: block, version: version, data: data})
}

// stage plans every op against the overlay in staging order, producing
// the batch's encoding units. It is pure map-overlay bookkeeping done
// under p.mu (held by plan); the O(batch × unit-size) sealing work
// happened lock-free in seal, so the lock hold stays brief however
// large the batch. All failing ops are collected so the caller sees
// every conflict of the batch at once, not just the first.
func (pl *batchPlan) stage(p *Partition, ops []batchOp, sealed [][]byte) []*OpError {
	var errs []*OpError
	fail := func(i int, err error) {
		errs = append(errs, &OpError{Index: i, Op: ops[i].name(), Block: ops[i].block, Err: err})
	}
	for i, op := range ops {
		r := pl.row(op.block, i)
		switch {
		case op.resynth:
			// Repair: fresh copies of an existing unit, log blocks
			// included. The row is read (for conflict detection) but
			// never moved.
			if !r.written {
				fail(i, fmt.Errorf("%w: block %d", ErrBlockNotFound, op.block))
				continue
			}
			pl.addUnit(i, op.block, op.version, sealed[i])
		case op.write:
			if r.written {
				fail(i, fmt.Errorf("%w: block %d", ErrBlockWritten, op.block))
				continue
			}
			r.written = true
			pl.addUnit(i, op.block, 0, sealed[i])
		case !r.written || r.log:
			fail(i, fmt.Errorf("%w: block %d", ErrBlockNotFound, op.block))
		default:
			if err := pl.appendVersion(p, i, op.block, sealed[i], op.block); err != nil {
				fail(i, err)
			}
		}
	}
	return errs
}

// Apply commits the staged operations atomically in three phases:
//
//  1. Plan — static validation, then version/log-slot planning for the
//     whole batch under a brief lock, snapshotting the table entries of
//     exactly the touched blocks. Conflicts inside the batch (double
//     writes, updates of unwritten blocks, overflow exhaustion) are all
//     reported here, per op, via BatchError; nothing wet has happened
//     yet and the partition noise stream is untouched.
//  2. Prepare — unit encode (whitening, RS parity, strand assembly) and
//     synthesis draws for every planned unit, fanned across
//     Config.Workers. Each unit draws noise from its own rng source
//     forked in plan order, so the synthesized species are
//     byte-identical at any worker count.
//  3. Commit — a short lock that re-validates the plan against the live
//     block table (concurrent mutations of the touched blocks surface
//     as ErrBatchConflict per op), installs the changed rows, and
//     merges the synthesized species into the tube. Cost counters bump
//     once for the whole batch.
//
// On any error the partition state and the tube are unchanged.
func (b *Batch) Apply() error {
	if b.applied {
		return fmt.Errorf("blockstore: batch already applied")
	}
	if len(b.ops) == 0 {
		b.applied = true
		return nil
	}
	if errs := b.validate(); errs != nil {
		return &BatchError{Ops: errs}
	}
	sealed, errs := b.seal()
	if errs != nil {
		return &BatchError{Ops: errs}
	}
	plan, errs := b.plan(sealed)
	if errs != nil {
		// A batch that fails planning is side-effect free: the noise
		// stream below is only touched once the plan is sound, so failed
		// operations do not perturb later synthesis.
		return &BatchError{Ops: errs}
	}
	if err := b.prepare(plan); err != nil {
		return err
	}
	if err := b.commit(plan); err != nil {
		return err
	}
	b.applied = true
	return nil
}

// validate performs the lock-free static checks: block range, payload
// size, patch shape.
func (b *Batch) validate() []*OpError {
	p := b.p
	var errs []*OpError
	for i, op := range b.ops {
		err := p.checkBlock(op.block)
		switch {
		case err != nil:
		case op.resynth:
			if len(op.data) != p.unit.DataBytes() {
				err = fmt.Errorf("%w: resynth unit %d bytes, want %d", ErrBlockSize, len(op.data), p.unit.DataBytes())
			} else if op.version < 0 {
				err = fmt.Errorf("blockstore: resynth of negative version %d", op.version)
			}
		case op.write:
			if len(op.data) > p.BlockSize() {
				err = fmt.Errorf("%w: %d > %d", ErrBlockSize, len(op.data), p.BlockSize())
			}
		default:
			err = op.patch.Validate()
		}
		if err != nil {
			errs = append(errs, &OpError{Index: i, Op: op.name(), Block: op.block, Err: err})
		}
	}
	return errs
}

// seal prepares each op's unit payload lock-free: write data expanded
// to the unit size with its pad CRC, patches marshaled and sealed. Only
// geometry immutable after partition creation is consulted, so the
// locked plan phase below is left with pure bookkeeping.
func (b *Batch) seal() ([][]byte, []*OpError) {
	p := b.p
	var errs []*OpError
	sealed := make([][]byte, len(b.ops))
	for i, op := range b.ops {
		if op.resynth {
			sealed[i] = op.data // already full sealed unit bytes
			continue
		}
		if op.write {
			sealed[i] = p.unit.Seal(op.data)
			continue
		}
		marshaled, err := op.patch.Marshal(p.BlockSize())
		if err != nil {
			errs = append(errs, &OpError{Index: i, Op: op.name(), Block: op.block, Err: err})
			continue
		}
		sealed[i] = p.unit.Seal(marshaled)
	}
	return sealed, errs
}

// plan stages every op under a brief lock — pure digital work against
// the live block table, snapshotting exactly the rows it touches.
func (b *Batch) plan(sealed [][]byte) (*batchPlan, []*OpError) {
	p := b.p
	p.mu.Lock()
	defer p.mu.Unlock()
	pl := newBatchPlan(p)
	return pl, pl.stage(p, b.ops, sealed)
}

// prepare runs the wet-work construction for every planned unit across
// the partition's workers: encode the sealed payload into strands and
// draw the synthesis copy numbers. Exactly one draw leaves the
// partition noise stream per prepared batch, whatever the batch size or
// worker count; units share no state — each has its own rng source,
// forked in plan order — so results are byte-identical at any worker
// count.
func (b *Batch) prepare(plan *batchPlan) error {
	p := b.p
	p.mu.Lock()
	src := p.noise.Fork()
	p.mu.Unlock()
	for i := range plan.units {
		plan.units[i].src = src.Fork()
	}
	// With a fault injector armed, each order faces vendor dropout; a
	// retry policy adds write-side QC — re-order a dropped unit up to
	// MaxSynthRetries times. Every outcome draws only from the unit's
	// private source, so batches stay byte-identical at any worker
	// count, and with no injector no draw happens at all.
	inj := p.store.cfg.Faults
	attempts := 1
	if inj != nil && p.store.cfg.Retry != nil {
		attempts += p.store.cfg.Retry.Normalize().MaxSynthRetries
	}
	return parallel.Run(p.workers, len(plan.units), func(i int) error {
		u := &plan.units[i]
		orders, err := p.buildUnitOrders(u.block, u.version, u.data)
		if err != nil {
			return err
		}
		for a := 0; a < attempts; a++ {
			if inj.DropSynthesis(u.src) {
				continue
			}
			synth, err := pool.Synthesize(u.src, orders, p.store.cfg.Synthesis)
			if err != nil {
				return err
			}
			u.synth = synth
			u.strands = len(orders)
			return nil
		}
		// Every order was dropped by the vendor: the unit ships empty.
		// The digital commit proceeds — the block's table entries exist —
		// but no physical strands back it, the silent loss the supervised
		// write QC above exists to prevent.
		u.synth = pool.New()
		return nil
	})
}

// commit validates the plan against the live block table and, if no
// touched block changed since the snapshot, installs the changed rows
// and merges the synthesized species into the tube — all under one
// short lock, so a concurrent reader that observes the new rows also
// finds the strands.
func (b *Batch) commit(plan *batchPlan) error {
	p := b.p
	// Merge the per-unit pools outside the lock; plan order keeps the
	// species insertion order identical at any worker count. Repair
	// units merge separately: their material is concentration-normalized
	// against the live tube at mix time (see Store.resynthScale).
	merged := pool.New()
	repairs := pool.New()
	strands := 0
	for i := range plan.units {
		u := &plan.units[i]
		if b.ops[u.op].resynth {
			repairs.MixInto(u.synth, 1)
		} else {
			merged.MixInto(u.synth, 1)
		}
		strands += u.strands
	}
	blocks := make([]int, 0, len(plan.rows))
	for blk := range plan.rows {
		blocks = append(blocks, blk)
	}
	sort.Ints(blocks)

	p.mu.Lock()
	var conflicts []*OpError
	for _, blk := range blocks {
		if e := plan.rows[blk]; p.blocks[blk] != e.base {
			conflicts = append(conflicts, &OpError{
				Index: e.op, Op: b.ops[e.op].name(), Block: blk,
				Err: fmt.Errorf("%w: block %d changed since the batch was staged", ErrBatchConflict, blk),
			})
		}
	}
	if plan.nextOp >= 0 && p.nextOverflow != plan.baseNext {
		conflicts = append(conflicts, &OpError{
			Index: plan.nextOp, Op: b.ops[plan.nextOp].name(), Block: b.ops[plan.nextOp].block,
			Err: fmt.Errorf("%w: overflow allocator moved since the batch was staged", ErrBatchConflict),
		})
	}
	if conflicts != nil {
		p.mu.Unlock()
		return &BatchError{Ops: conflicts}
	}
	// Rows the plan only looked at are left alone, so no row appears for
	// a block that was merely checked.
	for _, blk := range blocks {
		if e := plan.rows[blk]; e.row != e.base {
			p.blocks[blk] = e.row
		}
	}
	// Install the allocator only when this plan allocated log blocks (the
	// nextOp check above then guarantees the live value still matches the
	// snapshot): a non-allocating plan's stale snapshot must not roll
	// back a concurrent batch's allocations.
	if plan.nextOp >= 0 {
		p.nextOverflow = plan.next
	}
	if merged.Len() > 0 {
		p.store.mixIntoTube(merged, 1)
	}
	if repairs.Len() > 0 {
		p.store.mixIntoTube(repairs, p.store.resynthScale(repairs))
	}
	p.mu.Unlock()
	p.store.addCosts(func(c *Costs) { c.StrandsSynthesized += strands })
	return nil
}

// applyRetry commits the batch, restaging and retrying while every
// reported failure is a lost commit race. The classic mutation API
// (WriteBlock, UpdateBlock, Write, WriteBlocks, UpdateBlocks)
// serialized on the partition mutex before the batch engine and must
// not start failing each other spuriously now; real conflicts — a
// write-once violation, overflow exhaustion — still surface. Progress
// is guaranteed: a lost race means some competing batch committed, so
// the loop terminates once the contenders drain.
func (b *Batch) applyRetry() error {
	for {
		err := b.Apply()
		be, ok := err.(*BatchError)
		if !ok {
			return err
		}
		for _, op := range be.Ops {
			if !errors.Is(op, ErrBatchConflict) {
				return err
			}
		}
	}
}

// apply1 commits a single-op batch on behalf of the classic per-block
// API, unwrapping the one-op BatchError to its underlying error.
func (b *Batch) apply1() error {
	err := b.applyRetry()
	if be, ok := err.(*BatchError); ok && len(be.Ops) == 1 {
		return be.Ops[0].Err
	}
	return err
}
