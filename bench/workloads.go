package main

import (
	"bytes"
	"fmt"
	"time"

	"dnastore/internal/binding"
	"dnastore/internal/blockstore"
	"dnastore/internal/decay"
	"dnastore/internal/experiment"
	"dnastore/internal/fault"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// primerSeed fixes the primer library of every workload. The primer
// pair alone moves read latency up to 3x (misprime-prone pairs enrich
// more off-target species, so every reaction scores more of them),
// which would make a latency median a property of the seed draw rather
// than of the code. The library is the lab's fixed reagent set; -seed
// varies everything else: store seed (index trees, randomizers,
// reaction noise), payloads, patches and keys.
const primerSeed = 97

// readDepth is every store's CoverageDepth, twice the paper's 10, which
// doubles each read's sequencing budget. A streaming read stops at its
// coverage floor, well below either budget; the budget caps how far a
// read may escalate when its first floor does not decode. At the
// paper's depth some library stores hold a block whose reads fail 2-3%
// of the time with ErrRSMarginExceeded after spending the whole budget
// (about 1 point-cold read in 6,000); with twice the budget the two
// such blocks of seed 311 read 600 times out of 600. A workload should
// not fail. The budget also sets
// the stream's stop-check interval (a quarter of it), so a healthy
// point read overshoots its floor a little further: about 390 reads a
// block instead of 330.
const readDepth = 20

// sizes holds every workload dimension, so the tests' quick mode runs
// the same code on a tiny tube.
//
// Partitions are depth 3 (64 blocks) throughout. Streaming reads of a
// partition filled with hundreds of blocks fail a few percent of the
// time with an exceeded RS margin (768 blocks at depth 5: ~3%; 192 at
// depth 4: ~0.5%), and a workload should not fail; with 48-block
// partitions about 1 read in 10^4 failed at the paper's read depth,
// always on one of the rare fragile blocks readDepth is there for.
// Bigger stores get more partitions instead.
type sizes struct {
	depth   int // tree depth of every partition
	parts   int // partitions of the library store
	written int // blocks written per library partition, from block 0
	hot     int // point-hot key set
	span    int // range-scan length in blocks

	mixBlocks  int // data blocks written per write-mix partition
	mixPrefill int // write-mix partitions filled during setup
	mixParts   int // write-mix partitions (primer pairs) of one store

	agedWritten int
	agedDays    float64
}

var fullSizes = sizes{
	depth: 3, parts: 4, written: 48, hot: 48, span: 16,
	mixBlocks: 40, mixPrefill: 4, mixParts: 6,
	agedWritten: 8, agedDays: 500,
}

var quickSizes = sizes{
	depth: 2, parts: 2, written: 12, hot: 4, span: 4,
	mixBlocks: 8, mixPrefill: 1, mixParts: 3,
	agedWritten: 4, agedDays: 100,
}

// workload is one benchmark scenario: a store built from the seed, then
// an endless seeded sequence of operations the runner cuts by time or
// count. An operation that uses up its store sets fixture.spent; the
// runner then builds the next store, from fixture.nextSeed, outside the
// measurement.
type workload struct {
	name   string
	warmup func(sz sizes) int // untimed operations before measuring, fewer than spend a store
	build  func(seed uint64, sz sizes, prov binding.Provider) (*fixture, error)
	op     func(f *fixture) step
}

func two(sizes) int { return 2 }

var workloads = []*workload{
	// Read the whole hot set once so the binding cache holds its rows.
	{name: "point-hot", warmup: func(sz sizes) int { return sz.hot }, build: buildLibrary, op: pointHot},
	{name: "point-cold", warmup: two, build: buildLibrary, op: pointCold},
	{name: "range-scan", warmup: two, build: buildLibrary, op: rangeScan},
	{name: "write-mix", warmup: two, build: buildMix, op: writeMixRound},
	{name: "aged-faulty", warmup: two, build: buildAged, op: supervisedRead},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// key addresses one block of the store.
type key struct {
	part  *blockstore.Partition
	block int
}

// fixture is a built store plus the ground-truth model every returned
// block is checked against: each block's original payload and its
// patches in commit order.
type fixture struct {
	sz      sizes
	store   *blockstore.Store
	parts   []*blockstore.Partition
	orig    map[key][]byte
	patches map[key][]update.Patch
	keys    *rng.Source // operation keys
	data    *rng.Source // payload and patch bytes
	tr      *tracer     // nil on untraced runs
	prov    *countingProvider

	spent    bool   // the workload has used up this store
	nextSeed uint64 // seed of the store that replaces a spent one

	pass      []key // keys left in the current pass
	userBytes int   // block and patch-insert bytes committed, setup included
	strands   int   // strands those writes and updates synthesized

	nextBlock int // write-mix: next unwritten block of the last partition
	round     int // write-mix: rounds so far, setup included

	decay decay.Stats // aging applied during setup
	scrub *blockstore.ScrubReport
}

func (f *fixture) want(k key) []byte {
	out, err := update.ApplyAll(f.orig[k], f.patches[k])
	if err != nil {
		panic(fmt.Sprintf("model patch for block %d does not apply: %v", k.block, err))
	}
	return out
}

// step is the outcome of one timed operation.
type step struct {
	elapsed time.Duration // wall time inside the store calls only
	read    int           // blocks returned with the right bytes
	written int           // blocks written (content or patch)
	failed  bool          // the store returned an error or missed a block
	err     error         // the first error behind failed, if the store gave one
	corrupt int           // blocks returned with wrong bytes and no error
	retries int           // supervised re-reads and hedges
	hedges  int
	extra   int // sequencing reads spent on recovery
}

func (s *step) fail(err error) {
	if !s.failed {
		s.failed, s.err = true, err
	}
}

// add folds a nested step (a read inside a write-mix round) into s.
func (s *step) add(o step) {
	s.elapsed += o.elapsed
	s.read += o.read
	s.written += o.written
	s.corrupt += o.corrupt
	if o.failed {
		s.fail(o.err)
	}
}

// check compares one returned block against the model. A block that
// equals one of its own earlier versions is a stale read: the store
// lost a patch without an error. It fails the operation, so it shows in
// failed and the block goes to standard error; any other wrong bytes
// are corruption.
func (f *fixture) check(s *step, k key, got []byte) {
	switch {
	case got == nil:
		s.fail(fmt.Errorf("block %d not returned", k.block))
	case bytes.Equal(got, f.want(k)):
		s.read++
	case f.stale(k, got):
		s.fail(fmt.Errorf("%s block %d: stale read, a patch of %d missing", k.part.Name(), k.block, len(f.patches[k])))
	default:
		s.corrupt++
	}
}

// stale reports whether got is the block as it stood before one of its
// patches.
func (f *fixture) stale(k key, got []byte) bool {
	for n := range f.patches[k] {
		old, err := update.ApplyAll(f.orig[k], f.patches[k][:n])
		if err == nil && bytes.Equal(got, old) {
			return true
		}
	}
	return false
}

// call times one call into the store and, on traced runs, records it as
// a span under the current operation.
func (f *fixture) call(s *step, name string, fn func()) {
	id := f.tr.begin(name)
	t0 := time.Now()
	fn()
	s.elapsed += time.Since(t0)
	f.tr.end(id)
}

// newFixture builds a store with primer pairs for the given number of
// partitions; tune adjusts the paper's default configuration.
func newFixture(seed uint64, sz sizes, prov binding.Provider, pairs int, tune func(*blockstore.Config)) (*fixture, error) {
	lib, err := experiment.SearchPrimers(primerSeed, 2*pairs)
	if err != nil {
		return nil, err
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = 1
	cfg.CoverageDepth = readDepth
	cfg.SetTreeDepth(sz.depth)
	c, traced := prov.(*countingProvider)
	if traced {
		cfg.PCR.Provider = c
		cfg.Decode.Patterns = c.inner
	}
	if tune != nil {
		tune(&cfg)
	}
	s, err := blockstore.New(cfg, lib)
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	return &fixture{
		sz: sz, store: s, data: src.Fork(), keys: src.Fork(), nextSeed: successor(seed), prov: c,
		orig: make(map[key][]byte), patches: make(map[key][]update.Patch),
	}, nil
}

// successor is the seed of the store that follows the one built from
// seed: the store that replaces it once a workload spends it, and the
// next store the setup processes time. It is the seed stream's third
// draw, after the seeds of the payload and key streams.
func successor(seed uint64) uint64 {
	src := rng.New(seed)
	src.Uint64()
	src.Uint64()
	return src.Uint64()
}

func (f *fixture) addPartition() (*blockstore.Partition, error) {
	p, err := f.store.CreatePartition(fmt.Sprintf("p%03d", len(f.parts)))
	if err != nil {
		return nil, err
	}
	f.parts = append(f.parts, p)
	return p, nil
}

// payloads draws a full block of random bytes for blocks lo..hi-1.
func (f *fixture) payloads(p *blockstore.Partition, lo, hi int) map[int][]byte {
	out := make(map[int][]byte, hi-lo)
	for blk := lo; blk < hi; blk++ {
		b := make([]byte, p.BlockSize())
		for i := range b {
			b[i] = byte(f.data.Intn(256))
		}
		out[blk] = b
	}
	return out
}

// patch draws a length-preserving edit inside the first 256 bytes, the
// range a patch's one-byte offsets address: every block keeps its
// length, so any sequence of patches applies.
func (f *fixture) patch(p *blockstore.Partition, block int) blockstore.BlockPatch {
	size := min(p.BlockSize(), update.MaxBlockSize)
	n := 4 + f.data.Intn(13)
	ins := make([]byte, n)
	for i := range ins {
		ins[i] = byte(f.data.Intn(256))
	}
	pt := update.Patch{DeleteStart: f.data.Intn(size - n), DeleteCount: n, Insert: ins}
	pt.InsertPos = f.data.Intn(size - n + 1)
	return blockstore.BlockPatch{Block: block, Patch: pt}
}

// write commits blocks and, once the store accepted them, the model.
func (f *fixture) write(s *step, p *blockstore.Partition, blocks map[int][]byte) error {
	var err error
	before := f.store.Costs().StrandsSynthesized
	f.call(s, "WriteBlocks", func() { err = p.WriteBlocks(blocks) })
	if err != nil {
		return err
	}
	f.strands += f.store.Costs().StrandsSynthesized - before
	for b, d := range blocks {
		f.orig[key{p, b}] = d
		f.userBytes += len(d)
	}
	s.written += len(blocks)
	return nil
}

// update commits patches and, once the store accepted them, the model.
func (f *fixture) update(s *step, p *blockstore.Partition, patches []blockstore.BlockPatch) error {
	var err error
	before := f.store.Costs().StrandsSynthesized
	f.call(s, "UpdateBlocks", func() { err = p.UpdateBlocks(patches) })
	if err != nil {
		return err
	}
	f.strands += f.store.Costs().StrandsSynthesized - before
	for _, bp := range patches {
		k := key{p, bp.Block}
		f.patches[k] = append(f.patches[k], bp.Patch)
		f.userBytes += len(bp.Patch.Insert)
	}
	s.written += len(patches)
	return nil
}

// buildLibrary is the read workloads' store: parts partitions, each
// with blocks 0..written-1 written, every 10th block carrying one
// in-slot patch and block 25 three, the third of which spills into an
// overflow log block at the top of the partition's address space.
func buildLibrary(seed uint64, sz sizes, prov binding.Provider) (*fixture, error) {
	f, err := newFixture(seed, sz, prov, sz.parts, nil)
	if err != nil {
		return nil, err
	}
	var setup step
	for range sz.parts {
		p, err := f.addPartition()
		if err != nil {
			return nil, err
		}
		if err := f.write(&setup, p, f.payloads(p, 0, sz.written)); err != nil {
			return nil, err
		}
		var patches []blockstore.BlockPatch
		for b := 0; b < sz.written; b++ {
			n := 0
			if b%10 == 0 {
				n = 1
			}
			if b%50 == 25 {
				n = 3
			}
			for range n {
				patches = append(patches, f.patch(p, b))
			}
		}
		if err := f.update(&setup, p, patches); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// nextKey pops the next key of a pass over all keys, starting a pass
// in a fresh seeded order whenever one ends. Every key comes up once a
// pass, so the mix of keys a run reads depends only on how many
// operations it fits: a random draw would add its own variance to every
// per-block cost.
func (f *fixture) nextKey(all func() []key) key {
	if len(f.pass) == 0 {
		f.pass = all()
		f.keys.Shuffle(len(f.pass), func(i, j int) { f.pass[i], f.pass[j] = f.pass[j], f.pass[i] })
	}
	k := f.pass[0]
	f.pass = f.pass[1:]
	return k
}

// firstBlocks lists blocks 0..n-1 of every partition.
func (f *fixture) firstBlocks(n int) func() []key {
	return func() []key {
		var all []key
		for _, p := range f.parts {
			for b := range n {
				all = append(all, key{p, b})
			}
		}
		return all
	}
}

func (f *fixture) readBlock(k key) step {
	var s step
	var got []byte
	var err error
	f.call(&s, "ReadBlock", func() { got, err = k.part.ReadBlock(k.block) })
	if err != nil {
		s.fail(fmt.Errorf("%s block %d: %w", k.part.Name(), k.block, err))
		return s
	}
	f.check(&s, k, got)
	return s
}

// pointHot reads the 48-block hot set, the first 12 blocks of each
// partition, once a pass. The hot set has the same shape for every
// seed (blocks 0 and 10 of each partition carry a patch), and its 48
// elongated primer pairs fit the binding cache's 64-row LRU. After the warm-up pass, nearly every
// binding lookup is a cache hit on the reference machine, 80% of them
// row hits.
func pointHot(f *fixture) step {
	return f.readBlock(f.nextKey(f.firstBlocks(f.sz.hot / f.sz.parts)))
}

// pointCold reads every written block once, in a seeded order, and then
// spends the store, so every read is the first of its block in its
// store's life: the binding cache holds nothing of its elongated pair.
// On the reference machine 61% of binding lookups align.
func pointCold(f *fixture) step {
	s := f.readBlock(f.nextKey(f.firstBlocks(f.sz.written)))
	f.spent = len(f.pass) == 0
	return s
}

// rangeScan reads span consecutive blocks of one partition from a start
// aligned to 4 blocks but not to 16, so every range is the same shape:
// four prefix covers of four blocks, four multi-target reactions. Each
// pass reads every (partition, start) range once; half of the starts
// take in block 25 and its overflow chain. A pass spends the store: how
// many molecules a cover reaction ejects depends on the store's seed,
// and a run that scanned one store four times spread ejected_per_block
// 9% across seeds.
func rangeScan(f *fixture) step {
	k := f.nextKey(func() []key {
		var all []key
		for _, p := range f.parts {
			for lo := 4; lo+f.sz.span <= f.sz.written; lo += 4 {
				if lo%16 != 0 {
					all = append(all, key{p, lo})
				}
			}
		}
		return all
	})
	p, lo := k.part, k.block
	hi := lo + f.sz.span - 1
	f.spent = len(f.pass) == 0
	var s step
	var got [][]byte
	var err error
	f.call(&s, "ReadRange", func() { got, err = p.ReadRange(lo, hi) })
	if err == nil && len(got) != f.sz.span {
		err = fmt.Errorf("ReadRange(%d, %d) returned %d blocks", lo, hi, len(got))
	}
	if err != nil {
		s.fail(err)
		return s
	}
	for i, c := range got {
		f.check(&s, key{p, lo + i}, c)
	}
	return s
}

// buildMix fills the write-mix store's first mixPrefill partitions
// with write rounds, so timed rounds write into a tube with history.
// A fresh partition opens on the next primer pair whenever the current
// one has taken mixBlocks data blocks; the rest of its address space is
// left to overflow logs. Once all mixParts partitions are full the store
// is spent and the runner replaces it, so every store goes through the
// same rounds and a run's work does not depend on how many rounds it
// fits: a faster store runs more stores, not a bigger tube.
func buildMix(seed uint64, sz sizes, prov binding.Provider) (*fixture, error) {
	f, err := newFixture(seed, sz, prov, sz.mixParts, nil)
	if err != nil {
		return nil, err
	}
	for range sz.mixPrefill * sz.mixBlocks / 4 {
		var setup step
		if _, err := f.mixWrite(&setup); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// mixWrite is the write half of a write-mix round: a 4-block batch
// write, then a batch update. The update patches the round's first new
// block and the previous round's first block, which then holds two
// in-slot versions unless that round was an overflow round; every 4th
// round instead patches its third new block three times, past the
// in-slot versions into an overflow chain. The targets are fixed by the round, so every store
// holds the same chains. It returns the updated keys.
func (f *fixture) mixWrite(s *step) ([]key, error) {
	if len(f.parts) == 0 || f.nextBlock+4 > f.sz.mixBlocks {
		if _, err := f.addPartition(); err != nil {
			return nil, err
		}
		f.nextBlock = 0
	}
	p, nb := f.parts[len(f.parts)-1], f.nextBlock
	f.round++
	if err := f.write(s, p, f.payloads(p, nb, nb+4)); err != nil {
		return nil, err
	}
	f.nextBlock += 4
	f.spent = len(f.parts) == f.sz.mixParts && f.nextBlock+4 > f.sz.mixBlocks
	var targets []key
	switch {
	case f.round%4 == 0:
		targets = []key{{p, nb + 2}, {p, nb + 2}, {p, nb + 2}}
	case nb == 0:
		targets = []key{{p, 0}, {p, 1}}
	default:
		targets = []key{{p, nb}, {p, nb - 4}}
	}
	patches := make([]blockstore.BlockPatch, len(targets))
	for i, k := range targets {
		patches[i] = f.patch(p, k.block)
	}
	return targets, f.update(s, p, patches)
}

// writeMixRound is one write-mix round: mixWrite, then a read of one of
// the blocks it updated, chosen by the round.
func writeMixRound(f *fixture) step {
	var s step
	targets, err := f.mixWrite(&s)
	if err != nil {
		s.fail(err)
		return s
	}
	s.add(f.readBlock(targets[f.round%len(targets)]))
	return s
}

// buildAged writes a small partition into a store with the accelerated
// decay profile, 5% uniform stage faults and the default retry policy,
// ages it agedDays and runs one scrub pass. At 500 days every block
// still reads under supervision (the unattended first-loss horizon is
// ~800 days); aging multiplies the tube to ~1700 species per written
// block, which is what makes each reaction expensive.
func buildAged(seed uint64, sz sizes, prov binding.Provider) (*fixture, error) {
	inj, err := fault.NewInjector(fault.Uniform(0.05))
	if err != nil {
		return nil, err
	}
	f, err := newFixture(seed, sz, prov, 1, func(c *blockstore.Config) {
		prof := decay.Accelerated()
		pol := fault.DefaultRetryPolicy()
		c.Decay, c.Faults, c.Retry = &prof, inj, &pol
	})
	if err != nil {
		return nil, err
	}
	p, err := f.addPartition()
	if err != nil {
		return nil, err
	}
	var setup step
	if err := f.write(&setup, p, f.payloads(p, 0, sz.agedWritten)); err != nil {
		return nil, err
	}
	if f.decay, err = f.store.Advance(sz.agedDays); err != nil {
		return nil, err
	}
	if f.scrub, err = f.store.Scrub(blockstore.DefaultScrubPolicy()); err != nil {
		return nil, err
	}
	return f, nil
}

// supervisedRead reads one block through the recovery engine, every
// written block once a pass.
func supervisedRead(f *fixture) step {
	k := f.nextKey(f.firstBlocks(f.sz.agedWritten))
	var s step
	var got [][]byte
	var health []blockstore.Health
	var rep *blockstore.RecoveryReport
	var err error
	f.call(&s, "ReadBlocksSupervised", func() {
		got, health, rep, err = k.part.ReadBlocksSupervised([]int{k.block})
	})
	if err != nil {
		s.fail(err)
		return s
	}
	if got[0] == nil {
		s.fail(health[0].Err)
		return s
	}
	f.check(&s, k, got[0])
	s.retries, s.hedges, s.extra = rep.Retries, rep.Hedges, rep.ExtraReads
	return s
}
