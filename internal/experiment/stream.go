package experiment

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"dnastore/internal/blockstore"
	"dnastore/internal/streamdecode"
	"dnastore/internal/update"
)

// StreamResult reports the streaming-decode study: a timed warm range
// read, checked against the content written (patches applied) and its
// sequenced reads against the full budget its prefix covers provision,
// plus a 10^6-strand tube point showing the engine completing a
// single-block decode at the pool scale it was built for.
type StreamResult struct {
	Scale       int
	Blocks      int // blocks written to the study store
	RangeBlocks int // blocks in the timed range read

	StreamSeconds float64 // timed warm range read
	// StreamReads counts the reads the timed read sequenced, its
	// overflow-chain retrievals included; RangeBudget is what its
	// covers alone provision (Store.ReadBudget summed over them), so
	// the comparison is conservative.
	StreamReads   int
	StreamEjected int     // molecules the gate ejected unsequenced
	RangeBudget   int     // full read budget of the range's covers
	ReadsSaved    float64 // 1 - StreamReads/RangeBudget
	RangeOK       bool    // the read returned the written content

	// Per-stage breakdown of the timed read, from the engine's own
	// stage clocks: parse/sign (stage A), sharded assignment (stage B)
	// and finalization, with the fraction of kept reads routed to the
	// residue lane. Each is summed stage time, not wall time: the
	// clocks add up over the read's cover reactions, which run
	// concurrently when Workers > 1, so a stage can exceed
	// StreamSeconds.
	StageASeconds   float64
	StageBSeconds   float64
	FinalizeSeconds float64
	ResidueFrac     float64
	// Reopens counts the timed read's escalations: targets whose floor
	// did not decode, ContentFloor stops included, each reopened one
	// rung up its ladder.
	Reopens int

	// The big-pool point, run when the study's scale reaches
	// BigPoolScale: one ReadBlock against a tube of ~10^6 strands
	// (BigStrands species at 15 strands per block unit).
	BigStrands int
	BigBlocks  int
	BigSeconds float64 // build-to-content wet read
	BigReads   int     // reads the read sequenced
	BigBudget  int     // what the full budget would have sequenced
	BigOK      bool    // decoded content matches what was written
}

// BigPoolScale is the -scale threshold at and above which the study
// also runs the 10^6-strand point.
const BigPoolScale = 12

// bigPoolBlocks x 15 molecules per unit ≈ a 10^6-strand tube.
const bigPoolBlocks = 66_667

// streamBenchStore builds the study store: the paper's depth-5
// geometry and the study seed, with blocks sequential payloads
// committed in one batch plus a small update history (an in-slot
// update on block 1, an overflow chain on block 2) so the timed read
// exercises version slots and chained log blocks. It returns every
// written block's current content, padded to the block size with its
// patches applied.
func streamBenchStore(blocks, workers int) (*blockstore.Store, *blockstore.Partition, [][]byte, error) {
	primers, err := SearchPrimers(97, 2)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = 97
	cfg.Workers = workers
	s, err := blockstore.New(cfg, primers)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := s.CreatePartition("stream")
	if err != nil {
		return nil, nil, nil, err
	}
	payload := make(map[int][]byte, blocks)
	for i := 0; i < blocks; i++ {
		payload[i] = []byte(fmt.Sprintf("streaming decode study block %04d content", i))
	}
	if err := p.WriteBlocks(payload); err != nil {
		return nil, nil, nil, err
	}
	patches := map[int][]update.Patch{1: {{DeleteStart: 0, DeleteCount: 9, Insert: []byte("STREAMING")}}}
	for i := 0; i < 3; i++ {
		patches[2] = append(patches[2], update.Patch{InsertPos: i, Insert: []byte{byte('A' + i)}})
	}
	for _, b := range []int{1, 2} {
		for _, pt := range patches[b] {
			if err := p.UpdateBlock(b, pt); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	want := make([][]byte, blocks)
	for i := range want {
		data := make([]byte, p.BlockSize())
		copy(data, payload[i])
		if want[i], err = update.ApplyAll(data, patches[i]); err != nil {
			return nil, nil, nil, err
		}
	}
	return s, p, want, nil
}

// StreamStudy runs the streaming-decode study at the given scale:
// 48*scale written blocks, a timed warm 48-block range read (the
// binding cache is warmed by one untimed pass, so the timing is
// dominated by sequencing and decode), and — at BigPoolScale and
// beyond — the 10^6-strand single-block point.
func StreamStudy(scale, workers int) (*StreamResult, error) {
	if scale < 1 {
		scale = 1
	}
	if workers < 1 {
		workers = 1
	}
	blocks := 48 * scale
	if blocks > 1024 {
		blocks = 1024
	}
	rangeN := 48
	if rangeN > blocks {
		rangeN = blocks
	}
	res := &StreamResult{Scale: scale, Blocks: blocks, RangeBlocks: rangeN}

	s, p, want, err := streamBenchStore(blocks, workers)
	if err != nil {
		return nil, err
	}
	covers, err := p.Tree().Cover(0, rangeN-1)
	if err != nil {
		return nil, err
	}
	for _, c := range covers {
		units := 0
		for b := c.Lo; b <= c.Hi; b++ {
			units += 1 + p.Versions(b)
		}
		res.RangeBudget += s.ReadBudget(units)
	}
	if _, err := p.ReadRange(0, rangeN-1); err != nil { // warm the binding cache
		return nil, err
	}
	before, stBefore := s.Costs(), s.StreamStats()
	t0 := time.Now()
	out, err := p.ReadRange(0, rangeN-1)
	if err != nil {
		return nil, err
	}
	res.StreamSeconds = time.Since(t0).Seconds()
	after, stAfter := s.Costs(), s.StreamStats()
	res.StreamReads = after.ReadsSequenced - before.ReadsSequenced
	res.StreamEjected = after.ReadsEjected - before.ReadsEjected
	res.ReadsSaved = 1 - float64(res.StreamReads)/float64(res.RangeBudget)
	res.StageASeconds = stAfter.StageASeconds - stBefore.StageASeconds
	res.StageBSeconds = stAfter.StageBSeconds - stBefore.StageBSeconds
	res.FinalizeSeconds = stAfter.FinalizeSeconds - stBefore.FinalizeSeconds
	res.Reopens = stAfter.Reopens - stBefore.Reopens
	if kept := stAfter.Kept - stBefore.Kept; kept > 0 {
		res.ResidueFrac = float64(stAfter.Residue-stBefore.Residue) / float64(kept)
	}
	res.RangeOK = len(out) == rangeN
	for i := 0; res.RangeOK && i < rangeN; i++ {
		res.RangeOK = bytes.Equal(out[i], want[i])
	}

	if scale >= BigPoolScale {
		if err := bigPoolPoint(res, workers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// bigPoolPoint builds a ~10^6-strand tube (66,667 one-unit blocks in a
// depth-9 tree) and times one streaming ReadBlock against it — the
// 10^6-10^7-strand regime the engine's arena and sketch index target.
func bigPoolPoint(res *StreamResult, workers int) error {
	primers, err := SearchPrimers(101, 2)
	if err != nil {
		return err
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = 101
	cfg.Workers = workers
	cfg.SetTreeDepth(9) // 262,144 addressable blocks
	s, err := blockstore.New(cfg, primers)
	if err != nil {
		return err
	}
	p, err := s.CreatePartition("big")
	if err != nil {
		return err
	}
	// Commit in bounded batches: one 66k-op plan would work, but chunks
	// keep the planning snapshots and per-batch slices modest.
	const chunk = 8192
	want := make([][]byte, bigPoolBlocks)
	for lo := 0; lo < bigPoolBlocks; lo += chunk {
		hi := lo + chunk
		if hi > bigPoolBlocks {
			hi = bigPoolBlocks
		}
		payload := make(map[int][]byte, hi-lo)
		for b := lo; b < hi; b++ {
			want[b] = []byte(fmt.Sprintf("big pool block %06d", b))
			payload[b] = want[b]
		}
		if err := p.WriteBlocks(payload); err != nil {
			return err
		}
	}
	res.BigStrands = s.Tube().Len()
	res.BigBlocks = bigPoolBlocks

	const target = 31_415
	before := s.Costs()
	t0 := time.Now()
	got, err := p.ReadBlock(target)
	if err != nil {
		return err
	}
	res.BigSeconds = time.Since(t0).Seconds()
	res.BigReads = s.Costs().ReadsSequenced - before.ReadsSequenced
	res.BigBudget = s.ReadBudget(1)
	res.BigOK = bytes.Equal(got[:len(want[target])], want[target])
	return nil
}

// PrintStreamStudy formats the streaming-decode study.
func PrintStreamStudy(w io.Writer, r *StreamResult) {
	fmt.Fprintf(w, "Streaming sketch-indexed decode (scale %d: %d-block store, %d-block range read)\n",
		r.Scale, r.Blocks, r.RangeBlocks)
	fmt.Fprintf(w, "  range read: %8.3fs, %6d reads sequenced of a %d-read cover budget + %d ejected (%.0f%% reads saved)\n",
		r.StreamSeconds, r.StreamReads, r.RangeBudget, r.StreamEjected, 100*r.ReadsSaved)
	fmt.Fprintf(w, "  stages (summed stage time, not wall time): parse/sign %.3fs, assign %.3fs (%d shards), finalize %.3fs (residue %.1f%%, %d reopens)\n",
		r.StageASeconds, r.StageBSeconds, streamdecode.DefaultShards, r.FinalizeSeconds, 100*r.ResidueFrac, r.Reopens)
	if r.RangeOK {
		fmt.Fprintf(w, "  range content equals the written content: yes\n")
	} else {
		fmt.Fprintf(w, "  range content equals the written content: NO — decode contract violated\n")
	}
	if r.BigStrands > 0 {
		fmt.Fprintf(w, "  big pool: %d strands (%d blocks); ReadBlock %0.3fs, %d of %d budgeted reads, recovered: %v\n",
			r.BigStrands, r.BigBlocks, r.BigSeconds, r.BigReads, r.BigBudget, r.BigOK)
	}
}
