package blockstore

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"dnastore/internal/codec"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// Partition is one primer pair's address space, internally blocked by a
// PCR-navigable index tree.
//
// Partitions are safe for concurrent use. Reads are the hot path: the
// digital front-end state (version/written maps, primer cache, noise
// stream) is consulted briefly under the partition mutex, and the wet
// work — PCR, sequencing, decoding — runs outside it, fanned across
// workers for range and batched reads. Writes go through the staged
// Batch engine (see batch.go): version and log slots are planned
// against a snapshot, unit encoding and synthesis draws fan across the
// workers lock-free, and a short commit validates the plan against the
// live version table before merging the species into the tube.
type Partition struct {
	store    *Store
	name     string
	fwd, rev dna.Seq
	tree     *indextree.Tree
	rand     *codec.Randomizer
	unit     *layout.UnitCodec
	pipeline *decode.Pipeline
	workers  int

	// mu guards the digital front-end state below. The noise stream is
	// never consumed directly by a reaction: each reaction forks its own
	// child source under mu, in deterministic order, so parallel and
	// serial execution sample identical noise.
	mu           sync.Mutex
	versions     map[int]int // block -> updates written so far
	written      map[int]bool
	overflow     map[int]int // block -> its overflow log block
	nextOverflow int
	cache        *PrimerCache // optional elongated-primer cache
	noise        *rng.Source
}

// directUpdateSlots is the number of updates stored in the block's own
// version slots before overflowing: version bases give 4 slots, one for
// data, and the last slot is reserved for the overflow pointer, so two
// updates live inline (Section 5.3).
const directUpdateSlots = 2

// Name returns the partition name.
func (p *Partition) Name() string { return p.name }

// BlockSize returns the usable bytes per block (264 - pad = 256 in the
// paper's geometry).
func (p *Partition) BlockSize() int { return p.unit.DataBytes() - p.store.cfg.PadBytes }

// Blocks returns the number of addressable blocks (4^depth).
func (p *Partition) Blocks() int { return p.tree.Leaves() }

// Tree exposes the partition's index tree.
func (p *Partition) Tree() *indextree.Tree { return p.tree }

// Primers returns the partition's main primer pair.
func (p *Partition) Primers() (fwd, rev dna.Seq) { return p.fwd, p.rev }

// SetPrimerCache installs an elongated-primer cache (Section 7.7.4).
// Without a cache every elongated access synthesizes its primer anew.
func (p *Partition) SetPrimerCache(c *PrimerCache) {
	p.mu.Lock()
	p.cache = c
	p.mu.Unlock()
}

// Versions returns how many updates the block has received.
func (p *Partition) Versions(block int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.versions[block]
}

// ElongatedPrimer returns the block's fully elongated forward primer
// (main primer + sync base + full index), 31 bases in the paper's
// geometry.
func (p *Partition) ElongatedPrimer(block int) (dna.Seq, error) {
	idx, err := p.tree.Encode(block)
	if err != nil {
		return nil, err
	}
	return p.store.cfg.Geometry.ElongatedPrimer(p.fwd, idx), nil
}

// checkBlock validates a block number.
func (p *Partition) checkBlock(block int) error {
	if block < 0 || block >= p.Blocks() {
		return fmt.Errorf("%w: %d of %d", ErrBlockRange, block, p.Blocks())
	}
	return nil
}

// chargeElongated runs one elongated-primer use through the cache (if
// installed) and charges a synthesis on a miss. The caller must hold
// p.mu, which keeps cache state deterministic: all charging happens in
// the serial front-end phase of an access, never inside parallel wet
// work.
func (p *Partition) chargeElongated(key string) {
	if p.cache != nil && p.cache.AccessKey(key) {
		return
	}
	p.store.addCosts(func(c *Costs) { c.ElongatedPrimersSynthesized++ })
}

// overflowChain returns the block's overflow log blocks in chain order
// per the partition's table — the one bound shared by the front-end's
// charging and assembly's chase. The caller must hold p.mu.
func (p *Partition) overflowChain(block int) []int {
	var chain []int
	for log, ok := p.overflow[block]; ok && len(chain) < len(p.overflow); log, ok = p.overflow[log] {
		chain = append(chain, log)
	}
	return chain
}

// chargeOverflow charges the elongated primers of the block's
// overflow-log chain and returns the chain length — the extra PCR
// retrievals assembly will perform, which the caller's wear accounting
// includes. The digital front-end knows the chain without any wet
// work, so the charging stays in the serial phase even though the
// chain retrievals themselves run inside (possibly parallel) decode
// work. The caller must hold p.mu.
func (p *Partition) chargeOverflow(block int) int {
	chain := p.overflowChain(block)
	for _, log := range chain {
		p.chargeElongated(blockPrimerKey(log))
	}
	return len(chain)
}

// buildUnitOrders encodes one (block, version) unit into its synthesis
// orders: per-unit whitening, RS parity, index lookup, strand assembly.
// data must be exactly unit.DataBytes() long and already include
// padding. The work touches only digital state that is immutable after
// partition creation (randomizer, unit codec, tree, geometry), so it
// needs no lock and fans safely across batch workers.
func (p *Partition) buildUnitOrders(block, version int, data []byte) ([]pool.SynthesisOrder, error) {
	white := p.rand.Derive(decode.UnitSeed(block, version)).Apply(data)
	payloads, err := p.unit.Encode(white)
	if err != nil {
		return nil, err
	}
	idx, err := p.tree.Encode(block)
	if err != nil {
		return nil, err
	}
	orders := make([]pool.SynthesisOrder, 0, len(payloads))
	for intra, pl := range payloads {
		seq, err := p.store.cfg.Geometry.Assemble(p.fwd, p.rev, layout.Strand{
			Index: idx, Version: version, Intra: intra, Payload: pl,
		})
		if err != nil {
			return nil, err
		}
		orders = append(orders, pool.SynthesisOrder{
			Seq: seq,
			Meta: pool.Meta{
				Partition:   p.name,
				Block:       block,
				Version:     version,
				Intra:       intra,
				OriginBlock: block,
			},
		})
	}
	return orders, nil
}

// sealUnit expands block content to the unit size, writing a CRC32 of
// the content into the padding (Section 6.2's "randomly padded" tail;
// the whitening still turns it into random-looking bases). The CRC is
// the correctness oracle for the decoder's candidate recursion. With
// fewer than 4 pad bytes the unit is zero-padded without a checksum.
func (p *Partition) sealUnit(content []byte) []byte {
	out := make([]byte, p.unit.DataBytes())
	copy(out, content)
	bs := p.BlockSize()
	if p.store.cfg.PadBytes >= 4 {
		crc := crc32.ChecksumIEEE(out[:bs])
		out[bs] = byte(crc >> 24)
		out[bs+1] = byte(crc >> 16)
		out[bs+2] = byte(crc >> 8)
		out[bs+3] = byte(crc)
	}
	return out
}

// verifyUnit checks a decoded unit's pad CRC.
func (p *Partition) verifyUnit(data []byte) bool {
	if p.store.cfg.PadBytes < 4 || len(data) != p.unit.DataBytes() {
		return true
	}
	bs := p.BlockSize()
	crc := crc32.ChecksumIEEE(data[:bs])
	return data[bs] == byte(crc>>24) && data[bs+1] == byte(crc>>16) &&
		data[bs+2] == byte(crc>>8) && data[bs+3] == byte(crc)
}

// WriteBlock stores data (at most BlockSize bytes) as the block's
// original version. It is a one-op batch; WriteBlocks or a staged
// Batch commits many blocks far more cheaply.
func (p *Partition) WriteBlock(block int, data []byte) error {
	return p.Batch().Write(block, data).apply1()
}

// Write stores data sequentially from block 0 in one batch commit,
// returning the number of blocks consumed. On error nothing is written.
func (p *Partition) Write(data []byte) (int, error) {
	bs := p.BlockSize()
	n := (len(data) + bs - 1) / bs
	if n > p.Blocks() {
		return 0, fmt.Errorf("%w: %d blocks needed, %d available", ErrBlockSize, n, p.Blocks())
	}
	b := p.Batch()
	for i := 0; i < n; i++ {
		end := (i + 1) * bs
		if end > len(data) {
			end = len(data)
		}
		b.Write(i, data[i*bs:end])
	}
	if err := b.applyRetry(); err != nil {
		return 0, err
	}
	return n, nil
}

// WriteBlocks stores several blocks in one batch commit, staged in
// ascending block order. On error (reported per op via BatchError)
// nothing is written.
func (p *Partition) WriteBlocks(blocks map[int][]byte) error {
	if len(blocks) == 0 {
		return nil
	}
	order := make([]int, 0, len(blocks))
	for blk := range blocks {
		order = append(order, blk)
	}
	sort.Ints(order)
	b := p.Batch()
	for _, blk := range order {
		b.Write(blk, blocks[blk])
	}
	return b.applyRetry()
}

// UpdateBlock logs a patch against the block. The first two updates
// occupy the block's own version slots; further updates overflow into a
// log block whose pointer occupies the last slot (Section 5.3).
func (p *Partition) UpdateBlock(block int, patch update.Patch) error {
	return p.Batch().Update(block, patch).apply1()
}

// UpdateBlocks logs several patches in one batch commit, in slice
// order; multiple patches against one block land in consecutive version
// slots, overflow chains included. On error (reported per op via
// BatchError) nothing is written.
func (p *Partition) UpdateBlocks(patches []BlockPatch) error {
	b := p.Batch()
	for _, bp := range patches {
		b.Update(bp.Block, bp.Patch)
	}
	return b.applyRetry()
}

// UpdateBlockExternal prepares an update patch as a separately
// synthesized pool — the paper's IDT flow (Section 6.4.1), where small
// update pools come from a cheaper vendor with a very different
// concentration — without adding it to the tube. The version counter is
// advanced as usual; the caller is responsible for physically mixing the
// returned pool into the tube (package mix).
func (p *Partition) UpdateBlockExternal(block int, patch update.Patch, params pool.SynthesisParams) (*pool.Pool, error) {
	if err := p.checkBlock(block); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.written[block] {
		return nil, fmt.Errorf("%w: block %d", ErrBlockNotFound, block)
	}
	n := p.versions[block]
	if n >= directUpdateSlots {
		return nil, fmt.Errorf("blockstore: external updates support only direct slots (block %d has %d)", block, n)
	}
	marshaled, err := patch.Marshal(p.BlockSize())
	if err != nil {
		return nil, err
	}
	version := n + 1
	orders, err := p.buildUnitOrders(block, version, p.sealUnit(marshaled))
	if err != nil {
		return nil, err
	}
	external, err := pool.Synthesize(p.noise, orders, params)
	if err != nil {
		return nil, err
	}
	p.store.addCosts(func(c *Costs) { c.StrandsSynthesized += len(orders) })
	p.versions[block] = version
	return external, nil
}
