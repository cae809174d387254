package blockstore

import (
	"fmt"

	"dnastore/internal/update"
)

// The block table is a partition's digital record of its strands: one
// row per written block, the Section 5.3 slot discipline in one place.
// A block has four version slots. A data block keeps its original in
// v0, directUpdateSlots updates in v1..v2 and, once those are spent, a
// pointer to its first overflow log block in v3. Log blocks are
// allocated downward from the top of the address space (Figure 7's two
// stacks); each holds three patches in v0..v2 and a pointer to the next
// log in v3. Log blocks hold patches, not content, so users cannot
// address them: reads and updates get ErrBlockNotFound, writes
// ErrBlockWritten.

// directUpdateSlots is the number of updates stored in the block's own
// version slots before overflowing: version bases give 4 slots, one for
// data, and the last slot is reserved for the overflow pointer, so two
// updates live inline (Section 5.3).
const directUpdateSlots = 2

// blockRow is one block's entry in the table. The zero row is an
// unwritten block.
type blockRow struct {
	written bool
	log     bool // an overflow log block
	// versions is the last version slot an update has used: for a data
	// block 0..3, the pointer slot included; for a log block its last
	// patch's slot, -1 until the first lands, the pointer not included.
	versions int
	// overflow is the log block the v3 pointer names, 0 when none. Block
	// 0 is never a log block: the allocator stops at the first written
	// block it meets, and every chain's owner is written below it.
	overflow int
}

// planRow is a batch plan's overlay entry for one block it touched.
type planRow struct {
	op   int      // first op that depends on the block
	base blockRow // the live row at first contact
	row  blockRow // the row the plan will install
}

// row returns the block's planned row for op to read or change,
// snapshotting the live row on first contact. The caller must hold
// p.mu while staging.
func (pl *batchPlan) row(block, op int) *blockRow {
	e, ok := pl.rows[block]
	if !ok {
		live := pl.p.blocks[block]
		e = &planRow{op: op, base: live, row: live}
		pl.rows[block] = e
	}
	return &e.row
}

// allocLogBlock reserves the next overflow log block for from (a data
// block or an earlier log block), planning the pointer unit into from's
// last version slot. The log block's own v0 is left for the first
// overflowed patch. origin names the user block for error reporting.
func (pl *batchPlan) allocLogBlock(p *Partition, op, from, origin int) error {
	logBlock := pl.next
	if logBlock < 0 || pl.row(logBlock, op).written {
		return fmt.Errorf("%w: block %d", ErrOverflowFull, origin)
	}
	ptr, err := update.MarshalOverflow(logBlock, p.BlockSize())
	if err != nil {
		return err
	}
	pl.addUnit(op, from, directUpdateSlots+1, p.unit.Seal(ptr))
	pl.row(from, op).overflow = logBlock
	pl.next--
	if pl.nextOp < 0 {
		pl.nextOp = op
	}
	*pl.row(logBlock, op) = blockRow{written: true, log: true, versions: -1}
	return nil
}

// appendVersion plans unit data as the block's next version,
// overflowing into log blocks when the direct slots are exhausted and
// following chains started earlier, in the batch or before it.
func (pl *batchPlan) appendVersion(p *Partition, op, block int, unitData []byte, origin int) error {
	r := pl.row(block, op)
	if r.versions < directUpdateSlots {
		r.versions++
		pl.addUnit(op, block, r.versions, unitData)
		return nil
	}
	if r.overflow == 0 {
		if err := pl.allocLogBlock(p, op, block, origin); err != nil {
			return err
		}
		if !r.log {
			r.versions++ // a data block's pointer consumes its slot
		}
	}
	return pl.appendVersion(p, op, r.overflow, unitData, origin)
}

// overflowChain returns the block's overflow log blocks in chain order
// — the one bound shared by the front-end's charging and assembly's
// chase. The caller must hold p.mu.
func (p *Partition) overflowChain(block int) []int {
	var chain []int
	for log := p.blocks[block].overflow; log != 0 && len(chain) < len(p.blocks); log = p.blocks[log].overflow {
		chain = append(chain, log)
	}
	return chain
}

// expectedVersions returns, in ascending order, the unit versions that
// physically exist for the block per its row: the original, the direct
// update slots consumed so far, and the overflow pointer slot if the
// block has overflowed. Sequencing noise routinely conjures phantom
// versions (a read whose index or version field misdecodes lands in a
// unit that was never synthesized); health accounting and streaming
// coverage floors must ignore them. An empty list (unwritten or damaged
// front-end state) registers a streaming target with no floor, which is
// never Done: the stream then runs to the full budget.
func (p *Partition) expectedVersions(block int) []int {
	p.mu.Lock()
	r := p.blocks[block]
	p.mu.Unlock()
	if !r.written || r.versions < 0 {
		return nil
	}
	exp := []int{0}
	for v := 1; v <= min(r.versions, directUpdateSlots); v++ {
		exp = append(exp, v)
	}
	if r.overflow != 0 {
		exp = append(exp, directUpdateSlots+1)
	}
	return exp
}
