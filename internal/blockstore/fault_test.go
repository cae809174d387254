package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dnastore/internal/decode"
	"dnastore/internal/fault"
	"dnastore/internal/pool"
	"dnastore/internal/primer"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// goldenSeededDigest is buildSeeded's tube digest before the fault
// engine landed. The nil-injector path must keep reproducing it
// byte-for-byte: a failure here means the zero-fault default is no
// longer a no-op.
const goldenSeededDigest = "5857401521b30b9353b545c200b4bd466d62cb09bcc616a39c3326eb0f141d48"

// buildFaultSeeded is buildSeeded with a fault injector and retry
// policy wired into the store config.
func buildFaultSeeded(t testing.TB, workers int, plan fault.Plan, retry *fault.RetryPolicy) (*Store, *Partition) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	cfg.Retry = retry
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 12; b++ {
		if err := p.WriteBlock(b, bytes.Repeat([]byte{byte('a' + b)}, 40+b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.UpdateBlock(3, update.Patch{InsertPos: 0, Insert: []byte("v1 ")}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(3, update.Patch{InsertPos: 0, Insert: []byte("v2 ")}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateBlock(9, update.Patch{DeleteStart: 0, DeleteCount: 2}); err != nil {
		t.Fatal(err)
	}
	return s, p
}

// seededContents is the expected plaintext of every buildSeeded block
// after its updates.
func seededContents() [][]byte {
	want := make([][]byte, 12)
	for b := range want {
		want[b] = bytes.Repeat([]byte{byte('a' + b)}, 40+b)
	}
	want[3] = append([]byte("v2 v1 "), want[3]...)
	want[9] = want[9][2:]
	return want
}

// hasContent reports whether a read-back block carries the expected
// plaintext prefix (reads return the full padded block).
func hasContent(got, want []byte) bool {
	return len(got) >= len(want) && bytes.Equal(got[:len(want)], want)
}

func allBlocks() []int {
	blocks := make([]int, 12)
	for i := range blocks {
		blocks[i] = i
	}
	return blocks
}

// TestNilInjectorByteIdentity is the acceptance oracle for the fault
// engine's no-op default: with Faults nil the tube digest matches the
// pre-fault golden value at any worker count, and a zero-plan injector
// (armed hooks, all rates zero) is byte-identical to no injector at
// all — it draws nothing and fires nothing.
func TestNilInjectorByteIdentity(t *testing.T) {
	want := seededContents()
	for _, workers := range []int{1, 4} {
		s, p := buildSeeded(t, workers)
		if got := fmt.Sprintf("%x", s.TubeDigest()); got != goldenSeededDigest {
			t.Fatalf("workers=%d: nil-injector tube digest %s, want golden %s", workers, got, goldenSeededDigest)
		}
		zs, zp := buildFaultSeeded(t, workers, fault.Plan{}, nil)
		if zs.TubeDigest() != s.TubeDigest() {
			t.Errorf("workers=%d: zero-plan injector perturbed the tube digest", workers)
		}
		got, err := readContent(p.Read(ReadRequest{Blocks: []int{3, 9, 0}}))
		if err != nil {
			t.Fatal(err)
		}
		zgot, err := readContent(zp.Read(ReadRequest{Blocks: []int{3, 9, 0}}))
		if err != nil {
			t.Fatal(err)
		}
		equalBlockSets(t, fmt.Sprintf("workers=%d zero-plan vs nil", workers), got, zgot)
		for i, b := range []int{3, 9, 0} {
			if !hasContent(got[i], want[b]) {
				t.Errorf("workers=%d: block %d content wrong", workers, b)
			}
		}
		if st := zs.FaultStats(); st != (fault.Stats{}) {
			t.Errorf("workers=%d: zero-plan injector fired faults: %+v", workers, st)
		}
	}
}

// TestFaultCampaignDeterministic pins the injected campaign's
// determinism contract at the acceptance fault rate: a seeded 5%
// per-stage plan produces byte-identical tube digests, supervised
// outputs, health reports, recovery reports, and fired-fault counters
// at workers=1 and workers=4 — and the supervised arm reads 100% of
// the committed blocks correctly.
func TestFaultCampaignDeterministic(t *testing.T) {
	plan := fault.Uniform(0.05)
	pol := fault.DefaultRetryPolicy()
	want := seededContents()
	type arm struct {
		digest  string
		content [][]byte
		health  []string
		rep     *RecoveryReport
		stats   fault.Stats
	}
	run := func(workers int) arm {
		s, p := buildFaultSeeded(t, workers, plan, &pol)
		content, health, rep, err := p.ReadBlocksSupervised(allBlocks())
		if err != nil {
			t.Fatal(err)
		}
		hs := make([]string, len(health))
		for i, h := range health {
			hs[i] = fmt.Sprintf("block=%d recovered=%v units=%d missing=%d erased=%d cov=%.3f err=%v",
				h.Block, h.Recovered, h.Units, h.MissingSlots, h.ErasedSlots, h.Coverage, h.Err)
		}
		return arm{fmt.Sprintf("%x", s.TubeDigest()), content, hs, rep, s.FaultStats()}
	}
	a1 := run(1)
	a4 := run(4)
	if a1.digest != a4.digest {
		t.Errorf("tube digest diverged across worker counts: %s vs %s", a1.digest, a4.digest)
	}
	equalBlockSets(t, "supervised campaign", a1.content, a4.content)
	if !reflect.DeepEqual(a1.health, a4.health) {
		t.Errorf("health reports diverged:\n w1: %v\n w4: %v", a1.health, a4.health)
	}
	if !reflect.DeepEqual(a1.rep, a4.rep) {
		t.Errorf("recovery reports diverged:\n w1: %+v\n w4: %+v", a1.rep, a4.rep)
	}
	if a1.stats != a4.stats {
		t.Errorf("fault counters diverged: %+v vs %+v", a1.stats, a4.stats)
	}
	for i, c := range a1.content {
		if !hasContent(c, want[i]) {
			t.Errorf("block %d not read back correctly under 5%% supervised faults (health %s)", i, a1.health[i])
		}
	}
	if a1.rep.Blocks != 12 || len(a1.rep.Attempts) != 12 {
		t.Errorf("report covers %d blocks, attempts %d", a1.rep.Blocks, len(a1.rep.Attempts))
	}
}

// TestSupervisedRecovery drives heavy read-stage faults through both
// arms: the unsupervised pass loses blocks, the supervised engine
// retries them back — with bookkeeping that adds up.
func TestSupervisedRecovery(t *testing.T) {
	plan := fault.Plan{PCRFail: 0.5, SeqAbort: 0.5, SeqAbortFrac: 0.1}
	want := seededContents()

	_, up := buildFaultSeeded(t, 1, plan, nil)
	ucontent, uhealth, err := readReports(up.Read(ReadRequest{Blocks: allBlocks(), Mode: ReadHealth}))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for i, c := range ucontent {
		if c == nil {
			lost++
			if uhealth[i].Err == nil {
				t.Errorf("block %d lost without a classified error", i)
			}
		}
	}
	if lost == 0 {
		t.Fatal("fault rates too low to exercise recovery: unsupervised arm lost nothing")
	}

	pol := fault.RetryPolicy{MaxRetries: 6}
	_, sp := buildFaultSeeded(t, 1, plan, &pol)
	content, health, rep, err := sp.ReadBlocksSupervised(allBlocks())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range content {
		if !hasContent(c, want[i]) {
			t.Errorf("supervised arm block %d wrong or missing (health err %v)", i, health[i].Err)
		}
	}
	if rep.Failures == 0 {
		t.Error("supervised arm saw no initial failures at 50% fault rates")
	}
	if rep.Recovered != rep.Failures || rep.Exhausted != 0 {
		t.Errorf("recovered %d of %d failures, %d exhausted", rep.Recovered, rep.Failures, rep.Exhausted)
	}
	if rep.ExtraReads <= 0 {
		t.Error("recovery reported no extra sequencing reads")
	}
	if rep.MaxAttempts < 2 {
		t.Errorf("max attempts %d despite failures", rep.MaxAttempts)
	}
	maxA, retries := 0, 0
	for _, a := range rep.Attempts {
		if a > maxA {
			maxA = a
		}
		retries += a - 1
	}
	if maxA != rep.MaxAttempts {
		t.Errorf("MaxAttempts %d, attempts say %d", rep.MaxAttempts, maxA)
	}
	if retries != rep.Retries+rep.Hedges {
		t.Errorf("attempts count %d extra reads, report says %d retries + %d hedges",
			retries, rep.Retries, rep.Hedges)
	}
}

// TestSynthesisDropoutQC pins the write-side asymmetry: without a
// retry policy a dropped synthesis batch ships the unit empty and the
// block is silently unreadable; with write QC the dropped batch is
// re-synthesized and every block survives.
func TestSynthesisDropoutQC(t *testing.T) {
	plan := fault.Plan{SynthDrop: 0.5}
	write := func(p *Partition) map[int][]byte {
		blocks := make(map[int][]byte, 12)
		for b := 0; b < 12; b++ {
			blocks[b] = bytes.Repeat([]byte{byte('A' + b)}, 40+b)
		}
		if err := p.WriteBlocks(blocks); err != nil {
			t.Fatal(err)
		}
		return blocks
	}
	build := func(retry *fault.RetryPolicy) (*Store, *Partition) {
		cfg := testConfig()
		inj, err := fault.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		cfg.Retry = retry
		s := newTestStore(t, cfg)
		p, err := s.CreatePartition("drop")
		if err != nil {
			t.Fatal(err)
		}
		return s, p
	}

	us, up := build(nil)
	write(up)
	ucontent, _, err := readReports(up.Read(ReadRequest{Blocks: allBlocks(), Mode: ReadHealth}))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, c := range ucontent {
		if c == nil {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("50% synthesis dropout without QC lost no blocks")
	}

	ss, sp := build(&fault.RetryPolicy{MaxSynthRetries: 8})
	want := write(sp)
	content, health, err := readReports(sp.Read(ReadRequest{Blocks: allBlocks(), Mode: ReadHealth}))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range content {
		if !hasContent(c, want[i]) {
			t.Errorf("QC arm block %d wrong or missing (health err %v)", i, health[i].Err)
		}
	}
	// Dropped batches ship no strands and charge no synthesis cost;
	// the QC arm pays for what it actually put in the tube.
	if uc, sc := us.Costs().StrandsSynthesized, ss.Costs().StrandsSynthesized; uc >= sc {
		t.Errorf("dropout arm synthesized %d strands, QC arm %d", uc, sc)
	}
	if st := ss.FaultStats(); st.SynthDrops == 0 {
		t.Error("QC arm recorded no synthesis drops")
	}
}

// TestContaminationQuarantine exercises the full contamination story:
// a massive foreign spill chokes the reaction's reagent capacity, so
// the unscreened read fails; the supervised retry screens the input
// aliquot by primer mismatch, mass-zeroes the contaminant, and the
// re-run reaction amplifies normally.
func TestContaminationQuarantine(t *testing.T) {
	plan := fault.Plan{Contamination: 1, ContaminantFrac: 10}
	want := seededContents()

	pol := fault.DefaultRetryPolicy()
	s, p := buildFaultSeeded(t, 1, plan, &pol)

	// Unsupervised: every reaction is contaminated and under-amplifies.
	c, h, err := readOne(p.Read(ReadRequest{Blocks: []int{7}, Mode: ReadHealth}))
	if err != nil {
		t.Fatal(err)
	}
	if c != nil || h.Recovered {
		t.Fatal("unscreened contaminated read succeeded")
	}
	// The unscreened pass cannot see the foreign mass; what it observes
	// is a reaction that never amplified.
	if !errors.Is(h.Err, fault.ErrReactionFailed) {
		t.Errorf("unscreened failure classified as %v, want ErrReactionFailed", h.Err)
	}

	content, health, rep, err := p.ReadBlocksSupervised([]int{2, 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range []int{2, 7} {
		if !hasContent(content[i], want[b]) {
			t.Errorf("block %d not recovered through quarantine (health err %v)", b, health[i].Err)
		}
	}
	if rep.Failures != 2 || rep.Recovered != 2 {
		t.Errorf("failures %d recovered %d, want 2 and 2", rep.Failures, rep.Recovered)
	}
	if rep.QuarantinedSpecies < 2 {
		t.Errorf("quarantined %d species, want at least one per retried block", rep.QuarantinedSpecies)
	}
	if st := s.FaultStats(); st.Contaminations < 5 {
		t.Errorf("contamination fired %d times, want every reaction", st.Contaminations)
	}

	// The same spill with quarantine disabled never recovers: the
	// contaminant keeps choking the reaction however often it reruns.
	_, np := buildFaultSeeded(t, 1, plan, &fault.RetryPolicy{MaxRetries: 2, NoQuarantine: true})
	ncontent, nhealth, nrep, err := np.ReadBlocksSupervised([]int{7})
	if err != nil {
		t.Fatal(err)
	}
	if ncontent[0] != nil || nrep.Exhausted != 1 {
		t.Error("NoQuarantine arm recovered a choked reaction")
	}
	if !errors.Is(nhealth[0].Err, fault.ErrRetryBudgetExhausted) {
		t.Errorf("NoQuarantine failure is %v, want ErrRetryBudgetExhausted", nhealth[0].Err)
	}
}

// TestRetryBudgetExhausted pins the terminal failure shape: certain
// reaction failure burns the whole retry budget, the content stays
// nil, and the health error wraps both the budget sentinel and the
// last attempt's failure class.
func TestRetryBudgetExhausted(t *testing.T) {
	_, p := buildFaultSeeded(t, 1, fault.Plan{PCRFail: 1}, nil)
	content, health, rep, err := p.ReadBlocksSupervised([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if content[0] != nil {
		t.Error("content returned despite certain reaction failure")
	}
	if !errors.Is(health[0].Err, fault.ErrRetryBudgetExhausted) {
		t.Errorf("err %v, want ErrRetryBudgetExhausted", health[0].Err)
	}
	if !errors.Is(health[0].Err, fault.ErrReactionFailed) {
		t.Errorf("err %v does not carry the reaction-failure class", health[0].Err)
	}
	if rep.Exhausted != 1 || rep.Recovered != 0 {
		t.Errorf("report %+v, want one exhausted block", rep)
	}
	wantAttempts := 1 + fault.DefaultRetryPolicy().MaxRetries
	if rep.Attempts[0] != wantAttempts || rep.MaxAttempts != wantAttempts {
		t.Errorf("attempts %d (max %d), want %d", rep.Attempts[0], rep.MaxAttempts, wantAttempts)
	}
	if rep.ReactionFailures == 0 {
		t.Error("no attempts classified as reaction failures")
	}
}

// TestSeqAbortClassified verifies an aborted sequencing run is
// classified as such: the run delivers a truncated read prefix, the
// block starves, and the health error carries both the operational
// class and the curable coverage class.
func TestSeqAbortClassified(t *testing.T) {
	_, p := buildFaultSeeded(t, 1, fault.Plan{SeqAbort: 1, SeqAbortFrac: 0.05}, nil)
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

// TestQuarantineScreen unit-tests the primer-mismatch screen directly:
// library material passes, foreign material is mass-zeroed, and the
// reported foreign fraction matches the spiked mass.
func TestQuarantineScreen(t *testing.T) {
	s, p := buildSeeded(t, 1)
	_ = p
	clean := s.Tube().Clone()
	if zeroed, frac := s.quarantine(clean); zeroed != 0 || frac != 0 {
		t.Fatalf("screen flagged library material: %d species, frac %g", zeroed, frac)
	}
	spiked := s.Tube().Clone()
	total := spiked.Total()
	// Half the aliquot's mass again in foreign material: frac 1/3.
	spiked.Add(randomStrand(rng.New(99), s.Config().Geometry.StrandLen), total/2,
		pool.Meta{Partition: contaminantPartition, Block: -1})
	zeroed, frac := s.quarantine(spiked)
	if zeroed != 1 {
		t.Errorf("screen zeroed %d species, want the 1 contaminant", zeroed)
	}
	if frac < 0.33 || frac > 0.34 {
		t.Errorf("foreign fraction %g, want ~1/3", frac)
	}
	if spiked.Total() > total*1.001 {
		t.Errorf("quarantined mass still in aliquot: %g vs clean %g", spiked.Total(), total)
	}
}

// TestEscalatedRetryRefusesUnrepresentableDepth pins the scaled-budget
// guard on supervised retries: a DepthGrowth so large that the scaled
// read budget overflows an int must refuse the retry with ErrDepthScale
// and run no reaction, instead of wrapping to a one-read budget and
// reporting the block's versions as never observed.
func TestEscalatedRetryRefusesUnrepresentableDepth(t *testing.T) {
	s, p := buildFaultSeeded(t, 1, fault.Plan{}, &fault.RetryPolicy{MaxRetries: 2, DepthGrowth: 1e300})
	killSlots(t, s, "alice", 4, 6) // more slots than the parity erases
	before := s.Costs()
	content, health, rep, err := p.ReadBlocksSupervised([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if content[0] != nil || health[0].Recovered {
		t.Fatalf("block with 6 killed slots read back: %+v", health[0])
	}
	if !errors.Is(health[0].Err, ErrDepthScale) || !errors.Is(health[0].Err, fault.ErrRetryBudgetExhausted) {
		t.Errorf("err %v, want ErrDepthScale inside ErrRetryBudgetExhausted", health[0].Err)
	}
	after := s.Costs()
	if n := after.PCRReactions - before.PCRReactions; n != 1 {
		t.Errorf("%d PCR reactions, want only the initial pass's", n)
	}
	if rep.Retries != 2 || rep.ExtraReads != 0 {
		t.Errorf("report %+v: want 2 refused retries sequencing nothing", rep)
	}
	if n, base := after.ReadsSequenced-before.ReadsSequenced, s.ReadBudget(1); n > base {
		t.Errorf("%d reads sequenced, above the %d-read base budget", n, base)
	}
}

// TestNonFiniteRetryPolicyRejected pins policy validation at install:
// a NaN or infinite DepthGrowth or HedgeFloor would otherwise pass the
// defaults check and reach the read engine.
func TestNonFiniteRetryPolicyRejected(t *testing.T) {
	lib := primer.NewLibrary(primer.DefaultConstraints())
	lib.Search(rng.New(5), 4, 200000)
	primers := lib.Primers()
	for _, pol := range []fault.RetryPolicy{
		{DepthGrowth: math.Inf(1)},
		{DepthGrowth: math.NaN()},
		{HedgeFloor: math.Inf(1)},
		{HedgeFloor: math.NaN()},
	} {
		cfg := testConfig()
		cfg.Retry = &pol
		if _, err := New(cfg, primers); err == nil {
			t.Errorf("policy %+v accepted", pol)
		}
	}
}
