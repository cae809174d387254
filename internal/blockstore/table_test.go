package blockstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// slotModel is a reference for the digital side of Section 5.3, written
// from the rule rather than from the block table: a data block counts
// its updates; the first two live in its own slots, the third takes the
// pointer slot, and every overflowed patch goes to a chain of log
// blocks of three patches each, allocated downward from the top of the
// address space until the allocator meets a written block.
type slotModel struct {
	top   int           // next log block to allocate
	data  map[int]int   // data block -> updates
	chain map[int][]int // data block -> its log blocks
	owner map[int]int   // log block -> its data block
}

func newSlotModel(blocks int) *slotModel {
	return &slotModel{top: blocks - 1, data: map[int]int{}, chain: map[int][]int{}, owner: map[int]int{}}
}

func (m *slotModel) clone() *slotModel {
	c := &slotModel{top: m.top, data: map[int]int{}, chain: map[int][]int{}, owner: map[int]int{}}
	for b, u := range m.data {
		c.data[b] = u
	}
	for b, ch := range m.chain {
		c.chain[b] = slices.Clone(ch)
	}
	for b, d := range m.owner {
		c.owner[b] = d
	}
	return c
}

// apply runs one operation and returns its error class; a failed
// operation leaves the model unchanged.
func (m *slotModel) apply(write bool, b int) error {
	_, isData := m.data[b]
	_, isLog := m.owner[b]
	switch {
	case write && (isData || isLog):
		return ErrBlockWritten
	case write:
		m.data[b] = 0
		return nil
	case !isData:
		return ErrBlockNotFound
	}
	u := m.data[b] + 1
	if overflowed := u - 2; overflowed > 0 && len(m.chain[b]) < (overflowed+2)/3 {
		if _, taken := m.data[m.top]; m.top < 0 || taken {
			return ErrOverflowFull
		}
		m.chain[b] = append(m.chain[b], m.top)
		m.owner[m.top] = b
		m.top--
	}
	m.data[b] = u
	return nil
}

// want returns the block's Versions, expectedVersions and overflowChain.
func (m *slotModel) want(b int) (int, []int, []int) {
	if u, ok := m.data[b]; ok {
		v := min(u, 3)
		return v, []int{0, 1, 2, 3}[:v+1], m.chain[b]
	}
	d, ok := m.owner[b]
	if !ok {
		return 0, nil, nil
	}
	k := slices.Index(m.chain[d], b)
	patches := min(m.data[d]-2-3*k, 3)
	rest := m.chain[d][k+1:]
	exp := []int{0, 1, 2}[:patches]
	if len(rest) > 0 {
		exp = append(exp, 3)
	}
	return patches - 1, exp, rest
}

// modelClass reduces an operation error to the sentinel the model speaks.
func modelClass(err error) error {
	for _, s := range []error{ErrBlockWritten, ErrBlockNotFound, ErrOverflowFull} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

type modelOp struct {
	write bool
	block int
}

// runModel applies ops to m all or nothing, as a batch commits, and
// returns the failing ops' staging indices and classes.
func runModel(m *slotModel, ops []modelOp) (*slotModel, []string) {
	next := m.clone()
	var fails []string
	for i, op := range ops {
		if err := next.apply(op.write, op.block); err != nil {
			fails = append(fails, fmt.Sprintf("%d:%v", i, err))
		}
	}
	if fails != nil {
		return m, fails
	}
	return next, nil
}

// opFails lists an operation error's failing ops as runModel does: a
// batch error op by op, a single-op call's unwrapped error as op 0.
func opFails(err error) []string {
	var be *BatchError
	if !errors.As(err, &be) {
		if err != nil {
			return []string{fmt.Sprintf("0:%v", modelClass(err))}
		}
		return nil
	}
	var fails []string
	for _, op := range be.Ops {
		fails = append(fails, fmt.Sprintf("%d:%v", op.Index, modelClass(op.Err)))
	}
	return fails
}

// TestSlotDisciplineModel drives seeded random writes, updates and
// mixed batches over the whole address space — writes land in log
// space and exhaust the allocator, updates land on log blocks — and
// after every step checks the error classes, and every block's
// Versions, expectedVersions and overflowChain, against slotModel.
func TestSlotDisciplineModel(t *testing.T) {
	s := newTestStore(t, testConfig())
	seen := map[string]int{}
	for _, seed := range []uint64{1, 2, 3, 4} {
		p, err := s.CreatePartition(fmt.Sprintf("model%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		n := p.Blocks()
		// Half the draws go to four hot blocks, so chains grow long.
		pick := func() int {
			if r.Bool() {
				return r.Intn(4)
			}
			return r.Intn(n)
		}
		patch := update.Patch{Insert: []byte{'u'}}
		m := newSlotModel(n)
		for step := 0; step < 200; step++ {
			var ops []modelOp
			var err error
			switch kind := r.Intn(5); kind {
			case 0:
				ops = []modelOp{{true, pick()}}
				err = p.WriteBlock(ops[0].block, []byte{'w'})
			case 1:
				ops = []modelOp{{false, pick()}}
				err = p.UpdateBlock(ops[0].block, patch)
			case 2:
				blocks := map[int][]byte{}
				for k := 1 + r.Intn(3); k > 0; k-- {
					blocks[pick()] = []byte{'w'}
				}
				for b := range blocks {
					ops = append(ops, modelOp{true, b})
				}
				sort.Slice(ops, func(i, j int) bool { return ops[i].block < ops[j].block })
				err = p.WriteBlocks(blocks)
			case 3:
				var bps []BlockPatch
				for k := 1 + r.Intn(4); k > 0; k-- {
					b := pick()
					ops = append(ops, modelOp{false, b})
					bps = append(bps, BlockPatch{b, patch})
				}
				err = p.UpdateBlocks(bps)
			default:
				b := p.Batch()
				for k := 2 + r.Intn(3); k > 0; k-- {
					op := modelOp{r.Intn(3) == 0, pick()}
					if op.write {
						b.Write(op.block, []byte{'w'})
					} else {
						b.Update(op.block, patch)
					}
					ops = append(ops, op)
				}
				err = b.Apply()
			}
			for _, op := range ops {
				if _, log := m.owner[op.block]; log && op.write {
					seen["log block write"]++
				} else if log {
					seen["log block update"]++
				}
			}
			next, want := runModel(m, ops)
			if got := opFails(err); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d %+v: failing ops %v, model %v", seed, step, ops, got, want)
			}
			for _, f := range want {
				seen[f[strings.Index(f, ":")+1:]]++
			}
			if len(next.owner) > len(m.owner) {
				seen["log allocated"]++
			}
			m = next
			for b := 0; b < n; b++ {
				wv, wexp, wchain := m.want(b)
				p.mu.Lock()
				chain := p.overflowChain(b)
				p.mu.Unlock()
				if v, exp := p.Versions(b), p.expectedVersions(b); v != wv || !slices.Equal(exp, wexp) || !slices.Equal(chain, wchain) {
					t.Fatalf("seed %d step %d %+v: block %d has versions %d, expected %v, chain %v; model %d, %v, %v",
						seed, step, ops, b, v, exp, chain, wv, wexp, wchain)
				}
			}
		}
	}
	// The sequences must reach every corner the model exists for.
	for _, k := range []string{"log allocated", "log block write", "log block update",
		ErrBlockWritten.Error(), ErrBlockNotFound.Error(), ErrOverflowFull.Error()} {
		if seen[k] == 0 {
			t.Errorf("no step exercised %q: %v", k, seen)
		}
	}
}
