package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"dnastore/internal/decode"
	"dnastore/internal/fault"
	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
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

	sgot, serr := readContent(spart.Read(ReadRequest{Blocks: []int{7, 0, 12}}))
	bgot, berr := readContent(bpart.Read(ReadRequest{Blocks: []int{7, 0, 12}}))
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

	sgot, serr = readContent(spart.Read(ReadRequest{All: true}))
	bgot, berr = readContent(bpart.Read(ReadRequest{All: true}))
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
// engine stage timings: after streamed reads the store has accounted
// kept reads, lane decodes and stage compute, and every finalize ran on
// the reading goroutine, so the time waited on finalizes equals their
// compute.
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
		t.Error("no lane decodes recorded")
	}
	if st.FinalizeWaitSeconds != st.FinalizeSeconds {
		t.Errorf("finalize wait %.6fs != compute %.6fs", st.FinalizeWaitSeconds, st.FinalizeSeconds)
	}
	if st.HandoffSeconds != 0 || st.FinalizeDiscarded != 0 {
		t.Errorf("handoff %.6fs, %d discarded: no finalize cuts a snapshot or is abandoned",
			st.HandoffSeconds, st.FinalizeDiscarded)
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
	content, h, err := readOne(p.Read(ReadRequest{Blocks: []int{0}, Mode: ReadHealth}))
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

// TestStreamingCoverSeqAbortCapped pins that a streamed cover reaction
// honours an injected abort's delivery ceiling: every run aborts at 5%
// of its budget, so a range read may sequence at most the truncated
// budgets of its cover reactions.
func TestStreamingCoverSeqAbortCapped(t *testing.T) {
	const frac = 0.05
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Streaming = true
	inj, err := fault.NewInjector(fault.Plan{SeqAbort: 1, SeqAbortFrac: frac})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("cover-abort")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if err := p.WriteBlock(b, bytes.Repeat([]byte{byte('a' + b)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Costs().ReadsSequenced
	if _, err := p.Read(ReadRequest{Range: &Span{Lo: 0, Hi: 7}, Mode: ReadHealth}); err != nil {
		t.Fatal(err)
	}
	got := s.Costs().ReadsSequenced - before
	pl, err := p.planRange(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := 0
	for _, rx := range pl.reactions {
		ceiling += max(int(float64(s.ReadBudget(rx.units))*frac), 1)
	}
	if got == 0 || got > ceiling {
		t.Errorf("aborted range read sequenced %d reads, want 1..%d (the truncated budgets)", got, ceiling)
	}
}

// amplifyBlock plans one block's read and runs its elongated PCR,
// returning the amplified aliquot, the reaction's noise source after
// PCR, and the reaction's read budget.
func amplifyBlock(t *testing.T, p *Partition, block int) (*pool.Pool, *rng.Source, int) {
	t.Helper()
	pl, err := p.planBlocks([]int{block}, false)
	if err != nil {
		t.Fatal(err)
	}
	return amplify(t, p, pl.reactions[0])
}

// amplify runs a planned reaction's elongated PCR.
func amplify(t *testing.T, p *Partition, rx reaction) (*pool.Pool, *rng.Source, int) {
	t.Helper()
	primers := []pcr.Primer{{Fwd: p.store.cfg.Geometry.ElongatedPrimer(p.fwd, rx.prefix), Rev: p.rev, Conc: 1}}
	if c := p.store.cfg.CarryoverConc; c > 0 {
		primers = append(primers, pcr.Primer{Fwd: p.fwd, Rev: p.rev, Conc: c})
	}
	amplified, _, _, err := p.store.runPCR(rx.src, primers, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return amplified, rx.src, p.store.ReadBudget(rx.units)
}

// TestStreamLeavesSourceUnmoved pins the stream's private sequencing
// source: a strict (zero-slack) and a slack stream of the same reaction
// stop after different numbers of reads, yet leave the reaction's own
// source in the same state, so every draw the reaction makes after its
// stream (fault draws, overflow-chain reactions) is independent of
// where the stream stopped.
func TestStreamLeavesSourceUnmoved(t *testing.T) {
	cfg := testConfig()
	cfg.Streaming = true
	cfg.Workers = 1
	inj, err := fault.NewInjector(fault.Plan{SeqAbort: 0.5, SeqAbortFrac: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("fork")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 6; b++ {
		if err := p.WriteBlock(b, bytes.Repeat([]byte{byte('a' + b)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	differed := false
	for b := 0; b < 6; b++ {
		amplified, src, budget := amplifyBlock(t, p, b)
		strictSrc, slackSrc := *src, *src
		strictInfo, slackInfo := wetInfo{budget: budget}, wetInfo{budget: budget}
		strictCeil := p.store.faultBudget(&strictSrc, budget)
		slackCeil := p.store.faultBudget(&slackSrc, budget)
		if _, err := p.streamBlock(&strictSrc, amplified, b, strictCeil, &strictInfo, true); err != nil {
			t.Fatalf("block %d strict: %v", b, err)
		}
		if _, err := p.streamBlock(&slackSrc, amplified, b, slackCeil, &slackInfo, false); err != nil {
			t.Fatalf("block %d slack: %v", b, err)
		}
		if strictSrc != slackSrc {
			t.Errorf("block %d: strict stream (%d reads) and slack stream (%d reads) leave the source in different states",
				b, strictInfo.delivered, slackInfo.delivered)
		}
		differed = differed || strictInfo.entries != slackInfo.entries
	}
	if !differed {
		t.Error("strict and slack streams drew the same number of molecules on every block: the test compares nothing")
	}
}

// poreRun is what one pore charged and decoded at its first floor.
type poreRun struct {
	sequenced, ejected, drawn int
	content                   map[int]map[int][]byte
}

// runPore streams one amplified reaction to its first floor through a
// pore drawing chunk reads per engine update (0 keeps the default) and
// finalizes its targets. It fails the test if the pore charges a read
// the engine did not credit, or credits one after every floor was met.
func runPore(t *testing.T, p *Partition, amplified *pool.Pool, src rng.Source, budget int, targets []int, chunk int) poreRun {
	t.Helper()
	s, err := p.openPore(&src, amplified, budget, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.closePore(s)
	if chunk > 0 {
		s.chunk = chunk
	}
	for _, b := range targets {
		s.eng.Expect(b, p.expectedVersions(b))
	}
	admit, credited := s.admit, 0
	s.admit = func(i int) bool {
		ok := admit(i)
		if ok {
			if s.eng.AllDone() {
				t.Fatalf("chunk %d: read admitted after every floor was met", chunk)
			}
			credited++
		}
		return ok
	}
	s.fill(s.eng.AllDone)
	if !s.eng.AllDone() {
		t.Fatalf("chunk %d: stream spent (%d reads) before its floors", chunk, s.sequenced)
	}
	if credited != s.sequenced {
		t.Fatalf("chunk %d: pore charged %d reads, engine credited %d", chunk, s.sequenced, credited)
	}
	run := poreRun{sequenced: s.sequenced, ejected: s.ejected, drawn: s.st.Sequenced, content: map[int]map[int][]byte{}}
	for _, b := range targets {
		res, err := s.eng.FinalizeBlock(b)
		if err != nil {
			t.Fatalf("chunk %d: block %d: %v", chunk, b, err)
		}
		run.content[b] = res.Versions
	}
	return run
}

// TestPoreStopsOnFloorRead pins the in-chunk stop: a pore drawing its
// default chunks charges exactly the reads and ejections of a pore
// drawing one read per engine update, which checks its floors before
// every read, and decodes the same content at the first floor — for a
// point reaction and for a 4-block cover reaction, whose gate cuts
// chunks as each target finishes. A chunked pore draws past its cuts,
// but charges none of those draws.
func TestPoreStopsOnFloorRead(t *testing.T) {
	cfg := testConfig()
	cfg.Streaming = true
	cfg.Workers = 1
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("floor")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if err := p.WriteBlock(b, bytes.Repeat([]byte{byte('a' + b)}, 40+b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.UpdateBlock(1, update.Patch{InsertPos: 2, Insert: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	pl, err := p.planRange(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.reactions) != 1 {
		t.Fatalf("[0, 3] planned %d reactions, want one 4-block cover", len(pl.reactions))
	}
	cases := []struct {
		name    string
		rx      reaction
		targets []int
	}{{"cover", pl.reactions[0], []int{0, 1, 2, 3}}}
	for b := 0; b < 8; b++ {
		bp, err := p.planBlocks([]int{b}, false)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name    string
			rx      reaction
			targets []int
		}{fmt.Sprintf("point %d", b), bp.reactions[0], []int{b}})
	}
	for _, tc := range cases {
		amplified, src, budget := amplify(t, p, tc.rx)
		// Three streams per reaction: the pore forks its source from
		// the reaction's, so each draw taken here starts a new one.
		for stream := 0; stream < 3; stream++ {
			src.Uint64()
			one := runPore(t, p, amplified, *src, budget, tc.targets, 1)
			chunked := runPore(t, p, amplified, *src, budget, tc.targets, 0)
			if one.sequenced != chunked.sequenced || one.ejected != chunked.ejected {
				t.Errorf("%s/%d: chunked pore charged %d reads, %d ejections; one-read chunks %d, %d",
					tc.name, stream, chunked.sequenced, chunked.ejected, one.sequenced, one.ejected)
			}
			if !reflect.DeepEqual(one.content, chunked.content) {
				t.Errorf("%s/%d: chunked pore decodes different content", tc.name, stream)
			}
			if chunked.drawn <= chunked.sequenced {
				t.Errorf("%s/%d: chunked pore drew %d reads and charged %d: no chunk was cut",
					tc.name, stream, chunked.drawn, chunked.sequenced)
			}
			t.Logf("%s/%d: %d reads, %d ejections charged; chunked pore drew %d reads",
				tc.name, stream, chunked.sequenced, chunked.ejected, chunked.drawn)
		}
	}
}

// TestCoverEscalatesFailedFinalize pins cover escalation from a first
// finalize that fails outright. A cover stream whose pore has credited
// no read yet has no target with a result, so Engine.Finalize errors;
// escalate must reopen every target and stream on, as streamBlock does
// for a lone target, until each serves its expected versions. A store's
// own cover streams reach that state only when spent, where escalation
// stops at once, so the test opens the pore itself and skips the fill.
func TestCoverEscalatesFailedFinalize(t *testing.T) {
	cfg := testConfig()
	cfg.Streaming = true
	cfg.Workers = 1
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("escalate")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if err := p.WriteBlock(b, bytes.Repeat([]byte{byte('a' + b)}, 40+b)); err != nil {
			t.Fatal(err)
		}
	}
	pl, err := p.planRange(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.reactions) != 1 {
		t.Fatalf("[0, 3] planned %d reactions, want one 4-block cover", len(pl.reactions))
	}
	amplified, src, budget := amplify(t, p, pl.reactions[0])
	pore, err := p.openPore(src, amplified, budget, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.closePore(pore)
	targets := []int{0, 1, 2, 3}
	for _, b := range targets {
		pore.eng.Expect(b, p.expectedVersions(b))
	}
	if _, err := pore.eng.Finalize(); err == nil {
		t.Fatal("finalize with no read credited succeeded; the test reaches nothing")
	}
	results, err := p.escalate(pore, targets)
	if err != nil {
		t.Fatalf("escalation from a failed first finalize: %v", err)
	}
	for _, b := range targets {
		if !servesExpected(results[b], p.expectedVersions(b)) {
			t.Errorf("block %d: escalated cover does not serve its versions", b)
		}
	}
	if pore.spent() {
		t.Errorf("cover spent its whole ceiling (%d reads) escalating", pore.sequenced)
	}
	t.Logf("escalated cover: %d reads, %d ejections of a %d-read ceiling", pore.sequenced, pore.ejected, budget)
}
