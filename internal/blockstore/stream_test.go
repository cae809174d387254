package blockstore

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"dnastore/internal/decode"
	"dnastore/internal/fault"
	"dnastore/internal/update"
)

// twinStores builds two stores over the same primer library and seed,
// one streaming and one on the full budget, each with one partition holding the
// same written blocks and update history (including an overflow
// chain), so every read can be compared content for content. shards
// sets the streaming store's assignment shard count (0 = default).
func twinStores(t *testing.T, streamWorkers, batchWorkers, shards int) (stream, batch *Partition, ss, bs *Store) {
	t.Helper()
	mk := func(streaming bool, workers int) (*Store, *Partition) {
		cfg := testConfig()
		cfg.Streaming = streaming
		if streaming {
			cfg.StreamShards = shards
		}
		cfg.Workers = workers
		s := newTestStore(t, cfg)
		p, err := s.CreatePartition("twin")
		if err != nil {
			t.Fatal(err)
		}
		blocks := map[int][]byte{}
		for _, b := range []int{0, 3, 7, 12, 13, 14, 40} {
			data := bytes.Repeat([]byte{byte('a' + b%26)}, 40+b)
			blocks[b] = data
		}
		if err := p.WriteBlocks(blocks); err != nil {
			t.Fatal(err)
		}
		// One in-slot update on block 3, and three on block 7 so its
		// last version slot chains into the overflow log.
		if err := p.UpdateBlock(3, update.Patch{DeleteStart: 0, DeleteCount: 4, Insert: []byte("EDIT")}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := p.UpdateBlock(7, update.Patch{InsertPos: i, Insert: []byte{byte('X' + i)}}); err != nil {
				t.Fatal(err)
			}
		}
		return s, p
	}
	bstore, bpart := mk(false, batchWorkers)
	sstore, spart := mk(true, streamWorkers)
	return spart, bpart, sstore, bstore
}

// TestStreamingReadsMatchBatch is the system-level differential: with
// the same seed and write history, every content read of the streaming
// store must return byte-identical data to the batch store's, while
// sequencing strictly fewer reads.
func TestStreamingReadsMatchBatch(t *testing.T) {
	spart, bpart, sstore, bstore := twinStores(t, 4, 1, 0)

	for _, b := range []int{0, 3, 7, 40} {
		sgot, serr := spart.ReadBlock(b)
		bgot, berr := bpart.ReadBlock(b)
		if serr != nil || berr != nil {
			t.Fatalf("block %d: streaming err %v, batch err %v", b, serr, berr)
		}
		if !bytes.Equal(sgot, bgot) {
			t.Fatalf("block %d: streaming content diverges from batch", b)
		}
	}

	sgot, serr := spart.ReadBlocks([]int{7, 0, 12})
	bgot, berr := bpart.ReadBlocks([]int{7, 0, 12})
	if serr != nil || berr != nil {
		t.Fatalf("ReadBlocks: streaming err %v, batch err %v", serr, berr)
	}
	for i := range bgot {
		if !bytes.Equal(sgot[i], bgot[i]) {
			t.Fatalf("ReadBlocks[%d]: streaming content diverges from batch", i)
		}
	}

	sgot, serr = spart.ReadRange(3, 14)
	bgot, berr = bpart.ReadRange(3, 14)
	if serr != nil || berr != nil {
		t.Fatalf("ReadRange: streaming err %v, batch err %v", serr, berr)
	}
	for i := range bgot {
		if !bytes.Equal(sgot[i], bgot[i]) {
			t.Fatalf("ReadRange[%d]: streaming content diverges from batch", i)
		}
	}

	sgot, serr = spart.ReadAll()
	bgot, berr = bpart.ReadAll()
	if serr != nil || berr != nil {
		t.Fatalf("ReadAll: streaming err %v, batch err %v", serr, berr)
	}
	if len(sgot) != len(bgot) {
		t.Fatalf("ReadAll: %d streaming blocks, %d batch", len(sgot), len(bgot))
	}
	for i := range bgot {
		if !bytes.Equal(sgot[i], bgot[i]) {
			t.Fatalf("ReadAll[%d]: streaming content diverges from batch", i)
		}
	}

	sc, bc := sstore.Costs(), bstore.Costs()
	if sc.ReadsSequenced >= bc.ReadsSequenced {
		t.Errorf("streaming sequenced %d reads, batch %d: early stop saved nothing",
			sc.ReadsSequenced, bc.ReadsSequenced)
	}
	if bc.ReadsEjected != 0 {
		t.Errorf("batch store ejected %d reads", bc.ReadsEjected)
	}
	if sc.ReadsEjected == 0 {
		t.Error("streaming multi-target reads never engaged the adaptive-sampling gate")
	}
	t.Logf("reads sequenced: streaming %d vs batch %d (%.0f%%), ejected %d",
		sc.ReadsSequenced, bc.ReadsSequenced,
		100*float64(sc.ReadsSequenced)/float64(bc.ReadsSequenced), sc.ReadsEjected)
}

// TestStreamingWorkerInvariance pins that the streaming read path is
// deterministic in the worker count: serial and parallel streaming
// stores return identical content and identical read counts.
func TestStreamingWorkerInvariance(t *testing.T) {
	spart1, _, sstore1, _ := twinStores(t, 1, 1, 0)
	spartN, _, sstoreN, _ := twinStores(t, -1, 1, 0)

	a, err := spart1.ReadRange(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spartN.ReadRange(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("ReadRange[%d]: serial and parallel streaming diverge", i)
		}
	}
	c1, cN := sstore1.Costs(), sstoreN.Costs()
	if c1.ReadsSequenced != cN.ReadsSequenced || c1.ReadsEjected != cN.ReadsEjected {
		t.Errorf("read accounting depends on workers: serial %d/%d, parallel %d/%d",
			c1.ReadsSequenced, c1.ReadsEjected, cN.ReadsSequenced, cN.ReadsEjected)
	}
}

// TestStreamingShardInvariance pins that the assignment shard count is
// invisible to callers: for every shard count the streaming store
// returns content byte-identical to the batch store and the read/eject
// accounting is identical across shard counts.
func TestStreamingShardInvariance(t *testing.T) {
	type run struct {
		shards  int
		content [][]byte
		costs   Costs
	}
	var runs []run
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0) + 1} {
		spart, bpart, sstore, _ := twinStores(t, 4, 1, shards)
		sgot, serr := spart.ReadRange(0, 14)
		bgot, berr := bpart.ReadRange(0, 14)
		if serr != nil || berr != nil {
			t.Fatalf("shards=%d: streaming err %v, batch err %v", shards, serr, berr)
		}
		for i := range bgot {
			if !bytes.Equal(sgot[i], bgot[i]) {
				t.Fatalf("shards=%d ReadRange[%d]: streaming content diverges from batch", shards, i)
			}
		}
		runs = append(runs, run{shards, sgot, sstore.Costs()})
	}
	for _, r := range runs[1:] {
		for i := range runs[0].content {
			if !bytes.Equal(r.content[i], runs[0].content[i]) {
				t.Errorf("shards=%d block[%d] content diverges from shards=%d", r.shards, i, runs[0].shards)
			}
		}
		if r.costs.ReadsSequenced != runs[0].costs.ReadsSequenced ||
			r.costs.ReadsEjected != runs[0].costs.ReadsEjected {
			t.Errorf("read accounting depends on shards: shards=%d %d/%d, shards=%d %d/%d",
				runs[0].shards, runs[0].costs.ReadsSequenced, runs[0].costs.ReadsEjected,
				r.shards, r.costs.ReadsSequenced, r.costs.ReadsEjected)
		}
	}
}

// TestStreamingStatsAccumulate checks the store-level roll-up of
// engine stage timings: after streamed reads with overlapped
// finalization the store has accounted kept reads, finalize jobs, and
// stage compute.
func TestStreamingStatsAccumulate(t *testing.T) {
	spart, _, sstore, _ := twinStores(t, 4, 1, 4)
	if _, err := spart.ReadRange(0, 14); err != nil {
		t.Fatal(err)
	}
	st := sstore.StreamStats()
	if st.Kept == 0 {
		t.Error("no kept reads accumulated")
	}
	if st.FinalizeJobs == 0 {
		t.Error("no overlapped finalize jobs recorded")
	}
	if st.StageBSeconds <= 0 || st.FinalizeSeconds <= 0 {
		t.Errorf("stage timings not accumulated: stageB %.3fs finalize %.3fs",
			st.StageBSeconds, st.FinalizeSeconds)
	}
	if st.Residue == 0 {
		t.Error("sharded engine saw no residue-lane reads under a decayed channel")
	}
}

// TestStreamingSeqAbortClassified is the streamed twin of
// TestSeqAbortClassified: with streaming enabled the supervised
// health read must classify an injected run abort from the true
// delivered ceiling — not from a batch-only delivered count — and
// keep the curable coverage class.
func TestStreamingSeqAbortClassified(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	cfg.Streaming = true
	inj, err := fault.NewInjector(fault.Plan{SeqAbort: 1, SeqAbortFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("abort")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteBlock(0, bytes.Repeat([]byte{'a'}, 40)); err != nil {
		t.Fatal(err)
	}
	content, h, err := p.ReadBlockHealth(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if content != nil || h.Recovered {
		t.Fatal("read at 5% of the budget succeeded")
	}
	if !errors.Is(h.Err, fault.ErrRunAborted) {
		t.Errorf("err %v, want ErrRunAborted", h.Err)
	}
	if !errors.Is(h.Err, decode.ErrInsufficientCoverage) {
		t.Errorf("err %v lost the curable coverage class", h.Err)
	}
}
