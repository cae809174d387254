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

// StreamResult reports the streaming-decode study: the same wet range
// read on twin same-seed stores — one on the full budget (sequence
// every budgeted read, then decode them in one pass), one streaming
// (stop at the coverage floor, eject off-target molecules
// nanopore-style), both decoded by the same engine — with
// the contents compared byte for byte, plus a 10^6-strand tube point
// showing the streaming engine completing a single-block decode at the
// pool scale the engine was built for.
type StreamResult struct {
	Scale      int
	Blocks     int // blocks written to each twin store
	RangeReads int // blocks in the timed range read
	Shards     int // assignment shards in the streaming engine (resolved, never 0)

	BatchSeconds  float64 // timed warm range read, batch store
	StreamSeconds float64 // timed warm range read, streaming store
	Speedup       float64 // batch / streaming
	BatchReads    int     // reads sequenced by the timed batch read
	StreamReads   int     // reads sequenced by the timed streaming read
	StreamEjected int     // molecules the gate ejected unsequenced
	ReadsSaved    float64 // 1 - streaming/batch sequenced reads
	Identical     bool    // timed outputs byte-identical across the twins

	// Per-stage breakdown of the timed streaming read, from the
	// engine's own stage clocks: parse/sign (stage A), sharded
	// assignment (stage B) and finalization, with the fraction of kept
	// reads routed to the residue lane. Each is summed stage time, not
	// wall time: the clocks add up over the read's cover reactions,
	// which run concurrently when Workers > 1, so a stage can exceed
	// StreamSeconds.
	StageASeconds   float64
	StageBSeconds   float64
	FinalizeSeconds float64
	ResidueFrac     float64

	// The big-pool point, run when the study's scale reaches
	// BigPoolScale: one streaming ReadBlock against a tube of ~10^6
	// strands (BigStrands species at 15 strands per block unit).
	BigStrands int
	BigBlocks  int
	BigSeconds float64 // build-to-content wet read, streaming
	BigReads   int     // reads the streaming read sequenced
	BigBudget  int     // what the full budget would have sequenced
	BigOK      bool    // decoded content matches what was written
}

// BigPoolScale is the -scale threshold at and above which the study
// also runs the 10^6-strand point.
const BigPoolScale = 12

// bigPoolBlocks x 15 molecules per unit ≈ a 10^6-strand tube.
const bigPoolBlocks = 66_667

// streamBenchStore builds one twin: the paper's depth-5 geometry, the
// study seed, and the requested decode mode, with blocks sequential
// payloads committed in one batch plus a small update history (an
// in-slot update on block 1, an overflow chain on block 2) so the
// timed read exercises version slots and chained log blocks.
func streamBenchStore(streaming bool, blocks, workers, shards int) (*blockstore.Store, *blockstore.Partition, error) {
	primers, err := SearchPrimers(97, 2)
	if err != nil {
		return nil, nil, err
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = 97
	cfg.Workers = workers
	cfg.Streaming = streaming
	cfg.StreamShards = shards
	s, err := blockstore.New(cfg, primers)
	if err != nil {
		return nil, nil, err
	}
	p, err := s.CreatePartition("stream")
	if err != nil {
		return nil, nil, err
	}
	payload := make(map[int][]byte, blocks)
	for i := 0; i < blocks; i++ {
		payload[i] = []byte(fmt.Sprintf("streaming decode study block %04d content", i))
	}
	if err := p.WriteBlocks(payload); err != nil {
		return nil, nil, err
	}
	if err := p.UpdateBlock(1, update.Patch{DeleteStart: 0, DeleteCount: 9, Insert: []byte("STREAMING")}); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 3; i++ {
		if err := p.UpdateBlock(2, update.Patch{InsertPos: i, Insert: []byte{byte('A' + i)}}); err != nil {
			return nil, nil, err
		}
	}
	return s, p, nil
}

// StreamStudy runs the streaming-decode study at the given scale:
// 48*scale written blocks per twin store, a timed warm 48-block range
// read on each (the binding cache is warmed by one untimed pass, so the
// timing is dominated by sequencing and decode, the subsystems the
// streaming engine changes), and — at BigPoolScale and beyond — the
// 10^6-strand single-block point.
func StreamStudy(scale, workers, shards int) (*StreamResult, error) {
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
	res := &StreamResult{Scale: scale, Blocks: blocks, RangeReads: rangeN, Shards: shards}
	if res.Shards <= 0 {
		res.Shards = streamdecode.DefaultShards
	}

	type arm struct {
		secs    float64
		reads   int
		ejected int
		out     [][]byte
		stages  streamdecode.Stats // stage clocks of the timed read
	}
	run := func(streaming bool) (*arm, error) {
		s, p, err := streamBenchStore(streaming, blocks, workers, shards)
		if err != nil {
			return nil, err
		}
		if _, err := p.ReadRange(0, rangeN-1); err != nil { // warm the binding cache
			return nil, err
		}
		before := s.Costs()
		stBefore := s.StreamStats()
		t0 := time.Now()
		out, err := p.ReadRange(0, rangeN-1)
		if err != nil {
			return nil, err
		}
		after := s.Costs()
		stAfter := s.StreamStats()
		return &arm{
			secs:    time.Since(t0).Seconds(),
			reads:   after.ReadsSequenced - before.ReadsSequenced,
			ejected: after.ReadsEjected - before.ReadsEjected,
			out:     out,
			stages: streamdecode.Stats{
				Kept:            stAfter.Kept - stBefore.Kept,
				Residue:         stAfter.Residue - stBefore.Residue,
				StageASeconds:   stAfter.StageASeconds - stBefore.StageASeconds,
				StageBSeconds:   stAfter.StageBSeconds - stBefore.StageBSeconds,
				FinalizeSeconds: stAfter.FinalizeSeconds - stBefore.FinalizeSeconds,
			},
		}, nil
	}
	batch, err := run(false)
	if err != nil {
		return nil, err
	}
	stream, err := run(true)
	if err != nil {
		return nil, err
	}
	res.BatchSeconds, res.BatchReads = batch.secs, batch.reads
	res.StreamSeconds, res.StreamReads, res.StreamEjected = stream.secs, stream.reads, stream.ejected
	res.StageASeconds = stream.stages.StageASeconds
	res.StageBSeconds = stream.stages.StageBSeconds
	res.FinalizeSeconds = stream.stages.FinalizeSeconds
	if stream.stages.Kept > 0 {
		res.ResidueFrac = float64(stream.stages.Residue) / float64(stream.stages.Kept)
	}
	if res.StreamSeconds > 0 {
		res.Speedup = res.BatchSeconds / res.StreamSeconds
	}
	if res.BatchReads > 0 {
		res.ReadsSaved = 1 - float64(res.StreamReads)/float64(res.BatchReads)
	}
	res.Identical = len(batch.out) == len(stream.out)
	for i := 0; res.Identical && i < len(batch.out); i++ {
		res.Identical = bytes.Equal(batch.out[i], stream.out[i])
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
	fmt.Fprintf(w, "Streaming sketch-indexed decode (scale %d: %d-block stores, %d-block range read)\n",
		r.Scale, r.Blocks, r.RangeReads)
	fmt.Fprintf(w, "  batch read:     %8.3fs, %6d reads sequenced\n", r.BatchSeconds, r.BatchReads)
	fmt.Fprintf(w, "  streaming read: %8.3fs, %6d reads sequenced + %d ejected (%.2fx, %.0f%% reads saved)\n",
		r.StreamSeconds, r.StreamReads, r.StreamEjected, r.Speedup, 100*r.ReadsSaved)
	fmt.Fprintf(w, "  streaming stages (summed stage time, not wall time): parse/sign %.3fs, assign %.3fs (%d shards), finalize %.3fs (residue %.1f%%)\n",
		r.StageASeconds, r.StageBSeconds, r.Shards, r.FinalizeSeconds, 100*r.ResidueFrac)
	if r.Identical {
		fmt.Fprintf(w, "  streaming content byte-identical to batch: yes\n")
	} else {
		fmt.Fprintf(w, "  streaming content byte-identical to batch: NO — decode contract violated\n")
	}
	if r.BigStrands > 0 {
		fmt.Fprintf(w, "  big pool: %d strands (%d blocks); streaming ReadBlock %0.3fs, %d of %d budgeted reads, recovered: %v\n",
			r.BigStrands, r.BigBlocks, r.BigSeconds, r.BigReads, r.BigBudget, r.BigOK)
	}
}
