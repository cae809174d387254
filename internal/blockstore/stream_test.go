package blockstore

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dnastore/internal/fault"
	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// streamStore builds a store with one partition holding written blocks
// and an update history (including an overflow chain), and the model
// of what every written block must read back as.
func streamStore(t *testing.T, workers int) (*Partition, *Store, *transcriptModel) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("stream")
	if err != nil {
		t.Fatal(err)
	}
	model := &transcriptModel{size: p.BlockSize(), payload: map[int][]byte{}, patches: map[int][]update.Patch{}}
	for _, b := range []int{0, 3, 7, 12, 13, 14, 40} {
		model.payload[b] = bytes.Repeat([]byte{byte('a' + b%26)}, 40+b)
	}
	if err := p.WriteBlocks(model.payload); err != nil {
		t.Fatal(err)
	}
	// One in-slot update on block 3, and three on block 7 so its last
	// version slot chains into the overflow log.
	model.patches[3] = []update.Patch{{DeleteStart: 0, DeleteCount: 4, Insert: []byte("EDIT")}}
	for i := 0; i < 3; i++ {
		model.patches[7] = append(model.patches[7], update.Patch{InsertPos: i, Insert: []byte{byte('X' + i)}})
	}
	for _, b := range []int{3, 7} {
		for _, pt := range model.patches[b] {
			if err := p.UpdateBlock(b, pt); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p, s, model
}

// TestStreamingReadsMatchWritten is the system-level check of the
// streaming protocol against ground truth: block, batched-block, range
// and whole-partition reads return every block's written payload with
// its patches applied, while sequencing fewer reads than the full
// budgets of the reactions the reads planned (the overflow-chain
// retrievals' reads count against that sum too) and ejecting
// off-target molecules through the adaptive-sampling gate.
func TestStreamingReadsMatchWritten(t *testing.T) {
	p, s, model := streamStore(t, 4)
	check := func(call string, blocks []int, got [][]byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		if len(got) != len(blocks) {
			t.Fatalf("%s: %d blocks, want %d", call, len(got), len(blocks))
		}
		for i, b := range blocks {
			if !bytes.Equal(got[i], model.content(t, b)) {
				t.Fatalf("%s: block %d differs from its written payload with patches applied", call, b)
			}
		}
	}
	budget := 0 // the full budgets of the reactions the reads plan
	for _, b := range []int{0, 3, 7, 40} {
		got, err := p.ReadBlock(b)
		check(fmt.Sprintf("ReadBlock(%d)", b), []int{b}, [][]byte{got}, err)
		budget += s.ReadBudget(1 + p.Versions(b))
	}
	batch := []int{7, 0, 12}
	got, err := readContent(p.Read(ReadRequest{Blocks: batch}))
	check("Read(Blocks)", batch, got, err)
	for _, b := range batch {
		budget += s.ReadBudget(1 + p.Versions(b))
	}
	got, err = p.ReadRange(3, 14)
	check("ReadRange(3, 14)", []int{3, 7, 12, 13, 14}, got, err)
	got, err = readContent(p.Read(ReadRequest{All: true}))
	check("Read(All)", []int{0, 3, 7, 12, 13, 14, 40}, got, err)

	c := s.Costs()
	rangePlan, err := p.planRange(3, 14)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []readPlan{rangePlan, p.planCovers(nil)} {
		for _, rx := range pl.reactions {
			budget += s.ReadBudget(rx.units)
		}
	}
	if c.ReadsSequenced >= budget {
		t.Errorf("streaming sequenced %d reads, the planned reactions' full budgets %d: early stop saved nothing",
			c.ReadsSequenced, budget)
	}
	if c.ReadsEjected == 0 {
		t.Error("streaming reads never engaged the adaptive-sampling gate")
	}
	t.Logf("reads sequenced: %d of a %d-read planned budget (%.0f%%), ejected %d",
		c.ReadsSequenced, budget, 100*float64(c.ReadsSequenced)/float64(budget), c.ReadsEjected)
}

// TestStreamingWorkerInvariance pins that the streaming read path is
// deterministic in the worker count: serial and parallel stores return
// identical content and identical read counts.
func TestStreamingWorkerInvariance(t *testing.T) {
	p1, s1, _ := streamStore(t, 1)
	pN, sN, _ := streamStore(t, -1)

	a, err := p1.ReadRange(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pN.ReadRange(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("ReadRange[%d]: serial and parallel streaming diverge", i)
		}
	}
	c1, cN := s1.Costs(), sN.Costs()
	if c1.ReadsSequenced != cN.ReadsSequenced || c1.ReadsEjected != cN.ReadsEjected {
		t.Errorf("read accounting depends on workers: serial %d/%d, parallel %d/%d",
			c1.ReadsSequenced, c1.ReadsEjected, cN.ReadsSequenced, cN.ReadsEjected)
	}
}

// TestStreamingStatsAccumulate checks the store-level roll-up of
// engine stage timings: after streamed reads the store has accounted
// kept reads, lane decodes and stage compute, and every finalize ran on
// the reading goroutine, so the time waited on finalizes equals their
// compute.
func TestStreamingStatsAccumulate(t *testing.T) {
	p, s, _ := streamStore(t, 4)
	if _, err := p.ReadRange(0, 14); err != nil {
		t.Fatal(err)
	}
	st := s.StreamStats()
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

// TestStreamingSeqAbortClassified is TestSeqAbortClassified on a
// 4-worker store: parallel reactions must classify an injected run
// abort from the same delivered ceiling as the serial store.
func TestStreamingSeqAbortClassified(t *testing.T) {
	checkSeqAbortClassified(t, 4)
}

// TestStreamingCoverSeqAbortCapped pins that a streamed cover reaction
// honours an injected abort's delivery ceiling: every run aborts at 5%
// of its budget, so a range read may sequence at most the truncated
// budgets of its cover reactions.
func TestStreamingCoverSeqAbortCapped(t *testing.T) {
	const frac = 0.05
	cfg := testConfig()
	cfg.Workers = 1
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

// TestUnamplifiedCoverSequencesFullBudget pins the protocol rule for a
// reaction whose PCR never amplified: it sequences its full budget
// instead of streaming. Every PCR fails, and no block has an overflow
// chain to chase, so a range read sequences exactly the summed read
// budgets of its covers and ejects nothing — the one way a store's
// multi-target reaction reaches the full-budget protocol.
func TestUnamplifiedCoverSequencesFullBudget(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	inj, err := fault.NewInjector(fault.Plan{PCRFail: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("unamplified")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if err := p.WriteBlock(b, bytes.Repeat([]byte{byte('a' + b)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Costs()
	if _, err := p.Read(ReadRequest{Range: &Span{Lo: 0, Hi: 7}, Mode: ReadHealth}); err != nil {
		t.Fatal(err)
	}
	got := s.Costs().Sub(before)
	pl, err := p.planRange(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, rx := range pl.reactions {
		if rx.hi == rx.lo {
			t.Fatalf("cover [%d, %d] holds one block: the test reaches no multi-target reaction", rx.lo, rx.hi)
		}
		want += s.ReadBudget(rx.units)
	}
	if got.ReadsSequenced != want || got.ReadsEjected != 0 {
		t.Errorf("unamplified range read sequenced %d reads and ejected %d, want the covers' full budgets %d and no ejection",
			got.ReadsSequenced, got.ReadsEjected, want)
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
		if _, err := p.streamTargets(&strictSrc, amplified, []int{b}, strictCeil, true, &strictInfo); err != nil {
			t.Fatalf("block %d strict: %v", b, err)
		}
		if _, err := p.streamTargets(&slackSrc, amplified, []int{b}, slackCeil, false, &slackInfo); err != nil {
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
		run.content[b] = map[int][]byte{}
		for v, u := range res.Units {
			if u.Data != nil {
				run.content[b][v] = u.Data
			}
		}
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
// escalate must reopen every target and stream on until each serves
// its expected versions. A store's own cover streams reach that state
// only when spent, where escalation stops at once, so the test opens
// the pore itself and skips the fill.
func TestCoverEscalatesFailedFinalize(t *testing.T) {
	cfg := testConfig()
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
