package blockstore

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dnastore/internal/decay"
	"dnastore/internal/decode"
	"dnastore/internal/update"
)

// buildAged mirrors buildSeeded exactly but installs a decay profile,
// so its tube is comparable byte-for-byte against a buildSeeded store
// whenever the decay channel is a true no-op.
func buildAged(t testing.TB, workers int, prof *decay.Profile) (*Store, *Partition) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg.Decay = prof
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 12; b++ {
		content := bytes.Repeat([]byte{byte('a' + b)}, 40+b)
		if err := p.WriteBlock(b, content); err != nil {
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

// slotSpecies returns the tube indices of the partition's original
// (non-misprimed) species for (block, version), keyed by intra slot.
func slotSpecies(s *Store, part string, block, version int) map[int]int {
	tube := s.Tube()
	out := make(map[int]int)
	for i := 0; i < tube.Len(); i++ {
		m := tube.MetaAt(i)
		if m.Partition == part && m.Block == block && m.Version == version && !m.Misprimed {
			out[m.Intra] = i
		}
	}
	return out
}

// killSlots zeroes the abundance of the first n slot species of the
// block, simulating species driven extinct by decay.
func killSlots(t *testing.T, s *Store, part string, block, n int) {
	t.Helper()
	slots := slotSpecies(s, part, block, 0)
	killed := 0
	for intra := 0; intra < len(slots) && killed < n; intra++ {
		idx, ok := slots[intra]
		if !ok {
			t.Fatalf("block %d slot %d not found in tube", block, intra)
		}
		s.Tube().SetAbundance(idx, 0)
		killed++
	}
	if killed < n {
		t.Fatalf("killed only %d of %d slots", killed, n)
	}
}

// corruptSlots replaces the first n slot species of the block with
// payload-mutated twins at the original abundance, simulating strands
// corrupted past the code's margin while still primer-addressable.
func corruptSlots(t *testing.T, s *Store, part string, block, n int) {
	t.Helper()
	slots := slotSpecies(s, part, block, 0)
	tube := s.Tube()
	corrupted := 0
	for intra := 0; intra < len(slots) && corrupted < n; intra++ {
		idx, ok := slots[intra]
		if !ok {
			t.Fatalf("block %d slot %d not found in tube", block, intra)
		}
		seq := tube.SeqAt(idx)
		a := tube.Abundance(idx)
		m := tube.MetaAt(idx)
		// Scramble 16 bases mid-payload: well past the index region,
		// well before the reverse primer.
		lo := len(seq)/2 + 10
		for i := lo; i < lo+16 && i < len(seq)-25; i++ {
			seq[i] = (seq[i] + 1) % 4
		}
		tube.SetAbundance(idx, 0)
		tube.Add(seq, a, m)
		corrupted++
	}
	if corrupted < n {
		t.Fatalf("corrupted only %d of %d slots", corrupted, n)
	}
}

// TestDecayDisabledByteIdentity pins the no-op contract: a store with a
// disabled decay profile — even one whose clock is advanced — produces
// a tube and read outputs byte-identical to a store built without any
// decay configuration, at every worker count.
func TestDecayDisabledByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base, bp := buildSeeded(t, workers)
		aged, ap := buildAged(t, workers, &decay.Profile{}) // zero = disabled
		if stats, err := aged.Advance(365); err != nil {
			t.Fatal(err)
		} else if stats.SpeciesAged != 0 || stats.StrandsLost != 0 {
			t.Errorf("workers=%d: disabled profile aged species: %+v", workers, stats)
		}
		if got := aged.AgeDays(); got != 365 {
			t.Errorf("workers=%d: clock %v want 365", workers, got)
		}
		if base.TubeDigest() != aged.TubeDigest() {
			t.Fatalf("workers=%d: disabled decay perturbed the tube digest", workers)
		}
		wantRange, err := bp.ReadRange(0, 11)
		if err != nil {
			t.Fatal(err)
		}
		gotRange, err := ap.ReadRange(0, 11)
		if err != nil {
			t.Fatal(err)
		}
		equalBlockSets(t, "disabled-decay ReadRange", wantRange, gotRange)
		if base.TubeDigest() != aged.TubeDigest() {
			t.Fatalf("workers=%d: tube digests diverged after reads", workers)
		}
	}
}

// TestHealthReadsMatchClassicContent pins that the health-aware read
// paths recover the same bytes as the classic paths on a healthy tube.
func TestHealthReadsMatchClassicContent(t *testing.T) {
	_, p := buildSeeded(t, 4)
	blocks := []int{0, 3, 9, 11}
	want, err := p.ReadBlocks(blocks)
	if err != nil {
		t.Fatal(err)
	}
	got, health, err := p.ReadBlocksHealth(blocks)
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "ReadBlocksHealth", want, got)
	for i, h := range health {
		if !h.Recovered || h.Err != nil {
			t.Errorf("block %d not healthy: %+v", blocks[i], h)
		}
		if h.Coverage <= 0 {
			t.Errorf("block %d zero coverage estimate", blocks[i])
		}
	}
	wantRange, err := p.ReadRange(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	gotRange, rangeHealth, err := p.ReadRangeHealth(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "ReadRangeHealth", wantRange, gotRange)
	for _, h := range rangeHealth {
		if !h.Recovered {
			t.Errorf("range block %d not recovered: %v", h.Block, h.Err)
		}
	}
}

func TestAdvanceValidationAndClock(t *testing.T) {
	prof := decay.Accelerated()
	s, _ := buildAged(t, 1, &prof)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := s.Advance(bad); err == nil {
			t.Errorf("Advance(%v) accepted", bad)
		}
	}
	before := s.TubeDigest()
	if _, err := s.Advance(0); err != nil {
		t.Fatal(err)
	}
	if s.TubeDigest() != before {
		t.Error("Advance(0) perturbed the tube")
	}
	if _, err := s.Advance(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Advance(3); err != nil {
		t.Fatal(err)
	}
	if got := s.AgeDays(); got != 5 {
		t.Errorf("clock %v want 5", got)
	}
	stats := s.DecayStats()
	if stats.Days != 5 || stats.SpeciesAged == 0 {
		t.Errorf("accumulated stats %+v", stats)
	}
}

// TestAgedTubeDeterministic pins the aging channel's reproducibility:
// the same seed, horizon, and profile produce the same tube digest at
// any worker count, and a different store seed diverges.
func TestAgedTubeDeterministic(t *testing.T) {
	prof := decay.Accelerated()
	digest := func(workers int, seed uint64) [32]byte {
		cfg := testConfig()
		cfg.Workers = workers
		cfg.Seed = seed
		cfg.Decay = &prof
		s := newTestStore(t, cfg)
		p, err := s.CreatePartition("alice")
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 6; b++ {
			if err := p.WriteBlock(b, bytes.Repeat([]byte{byte('a' + b)}, 50)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Advance(400); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Advance(100); err != nil {
			t.Fatal(err)
		}
		return s.TubeDigest()
	}
	d1 := digest(1, testConfig().Seed)
	d4 := digest(4, testConfig().Seed)
	dmax := digest(8, testConfig().Seed)
	if d1 != d4 || d1 != dmax {
		t.Fatal("aged tube digest depends on worker count")
	}
	if d1 == digest(1, testConfig().Seed+1) {
		t.Fatal("aged tube digest ignores the store seed")
	}
}

// TestHealthReadsDegradeGracefully drives two blocks into the two
// terminal failure classes and checks the health-aware reads classify
// them with the typed sentinels instead of aborting the batch.
func TestHealthReadsDegradeGracefully(t *testing.T) {
	s, p := buildSeeded(t, 4)
	killSlots(t, s, "alice", 5, 15)   // every slot extinct: unobservable
	corruptSlots(t, s, "alice", 7, 6) // > parity: strands beyond the code

	// Classic path still aborts, with a typed error wrapping the
	// generic decode sentinel (its coverage-vs-margin pick is
	// best-effort: phantom clusters can blur the class).
	if _, err := p.ReadBlocks([]int{5}); !errors.Is(err, decode.ErrDecode) {
		t.Errorf("classic ReadBlocks error = %v, want an ErrDecode wrap", err)
	}

	blocks := []int{3, 5, 7}
	out, health, err := p.ReadBlocksHealth(blocks)
	if err != nil {
		t.Fatalf("health read aborted: %v", err)
	}
	if out[0] == nil || !health[0].Recovered {
		t.Errorf("healthy block 3 not recovered: %+v", health[0])
	}
	if out[1] != nil || health[1].Recovered {
		t.Error("block 5 with 5 dead slots reported recovered")
	}
	if !errors.Is(health[1].Err, ErrInsufficientCoverage) {
		t.Errorf("block 5 error = %v, want ErrInsufficientCoverage", health[1].Err)
	}
	if health[1].Coverage >= 2 {
		t.Errorf("block 5 coverage = %.2f from phantom reads alone, want < 2", health[1].Coverage)
	}
	if out[2] != nil || health[2].Recovered {
		t.Error("block 7 with 6 corrupted slots reported recovered")
	}
	if !errors.Is(health[2].Err, ErrRSMarginExceeded) {
		t.Errorf("block 7 error = %v, want ErrRSMarginExceeded", health[2].Err)
	}

	// Range reads degrade per block instead of aborting.
	outRange, rangeHealth, err := p.ReadRangeHealth(0, 11)
	if err != nil {
		t.Fatalf("health range read aborted: %v", err)
	}
	if len(outRange) != 12 {
		t.Fatalf("range returned %d blocks, want 12", len(outRange))
	}
	recovered := 0
	for i, h := range rangeHealth {
		switch h.Block {
		case 5:
			if outRange[i] != nil || !errors.Is(h.Err, ErrInsufficientCoverage) {
				t.Errorf("range block 5: %+v", h)
			}
		case 7:
			if outRange[i] != nil || h.Recovered {
				t.Errorf("range block 7 reported recovered")
			}
		default:
			if outRange[i] == nil || !h.Recovered {
				t.Errorf("range block %d not recovered: %v", h.Block, h.Err)
			}
			recovered++
		}
	}
	if recovered != 10 {
		t.Errorf("recovered %d healthy blocks, want 10", recovered)
	}
}

// TestScrubRepairsForcedDamage kills a within-margin number of slots on
// two blocks and checks a scrub pass diagnoses and re-synthesizes them
// back to full health.
func TestScrubRepairsForcedDamage(t *testing.T) {
	s, p := buildSeeded(t, 4)
	want, err := p.ReadBlocks([]int{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	killSlots(t, s, "alice", 4, 3)
	killSlots(t, s, "alice", 9, 4)

	report, err := s.Scrub(DefaultScrubPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if report.BlocksProbed < 12 {
		t.Errorf("probed %d blocks, want >= 12", report.BlocksProbed)
	}
	repaired := map[int]bool{}
	for _, r := range report.Flagged {
		if r.Block == 4 || r.Block == 9 {
			if r.Action != "resynth" {
				t.Errorf("block %d repaired via %q, want resynth", r.Block, r.Action)
			}
			if !r.Repaired {
				t.Errorf("block %d not repaired: %v", r.Block, r.Err)
			}
			repaired[r.Block] = true
		}
	}
	if !repaired[4] || !repaired[9] {
		t.Fatalf("damaged blocks not flagged: %+v", report.Flagged)
	}
	if report.Cost.StrandsSynthesized == 0 {
		t.Error("re-synthesis repair reported zero strands synthesized")
	}
	if report.Cost.ReadsSequenced == 0 || report.Cost.PCRReactions == 0 {
		t.Error("scrub pass reported zero wet costs")
	}

	got, health, err := p.ReadBlocksHealth([]int{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	equalBlockSets(t, "post-repair content", want, got)
	for i, h := range health {
		if !h.Recovered {
			t.Errorf("repaired block %d unhealthy: %v", h.Block, h.Err)
		}
		if h.MissingSlots != 0 {
			t.Errorf("repaired block %d still missing %d slots (i=%d)", h.Block, h.MissingSlots, i)
		}
	}
}

// TestScrubBoostPath forces every block below an absurd coverage floor
// and checks the auto policy re-amplifies complete blocks rather than
// re-synthesizing them.
func TestScrubBoostPath(t *testing.T) {
	s, _ := buildSeeded(t, 4)
	before := s.Tube().Total()
	pol := DefaultScrubPolicy()
	pol.MinCoverage = 1e9
	report, err := s.Scrub(pol)
	if err != nil {
		t.Fatal(err)
	}
	if report.BlocksFlagged == 0 || report.Boosts == 0 {
		t.Fatalf("nothing boosted: %+v", report)
	}
	for _, r := range report.Flagged {
		if r.Health.MissingSlots == 0 && r.Health.Err == nil && r.Action != "boost" {
			t.Errorf("complete block %d repaired via %q, want boost", r.Block, r.Action)
		}
	}
	if after := s.Tube().Total(); after < before*5 {
		t.Errorf("boost grew tube %.1fx, want >= 5x", after/before)
	}
}

// TestScrubRepairNoneIsReadOnly pins that a diagnose-only scrub leaves
// the tube byte-identical even when it flags damage.
func TestScrubRepairNoneIsReadOnly(t *testing.T) {
	s, _ := buildSeeded(t, 4)
	killSlots(t, s, "alice", 6, 5)
	before := s.TubeDigest()
	pol := DefaultScrubPolicy()
	pol.Repair = RepairNone
	report, err := s.Scrub(pol)
	if err != nil {
		t.Fatal(err)
	}
	if report.BlocksFlagged == 0 {
		t.Error("dead block not flagged")
	}
	if report.Repaired != 0 || report.Boosts != 0 || report.Resyntheses != 0 {
		t.Errorf("RepairNone acted on the tube: %+v", report)
	}
	if s.TubeDigest() != before {
		t.Error("diagnose-only scrub perturbed the tube")
	}
}

// TestScrubRejectsNonFinitePolicy pins that a NaN or infinite policy
// field fails the pass before any probe runs, leaving the tube intact:
// a NaN boost gain once passed the defaults check and poisoned every
// boosted species' abundance, so every later read failed.
func TestScrubRejectsNonFinitePolicy(t *testing.T) {
	prof := decay.Accelerated()
	s, p := buildAged(t, 1, &prof)
	if _, err := s.Advance(500); err != nil {
		t.Fatal(err)
	}
	before, costs := s.TubeDigest(), s.Costs()
	for _, pol := range []ScrubPolicy{
		{BoostFactor: math.NaN(), Repair: RepairBoost, MinCoverage: 1e9},
		{BoostFactor: math.Inf(1), Repair: RepairBoost, MinCoverage: 1e9},
		{ProbeDepthFactor: math.NaN()},
		{ProbeDepthFactor: math.Inf(1)},
		{MinCoverage: math.Inf(-1)},
		{MaxRSMargin: math.NaN()},
	} {
		if _, err := s.Scrub(pol); err == nil {
			t.Errorf("policy %+v accepted", pol)
		}
	}
	if s.TubeDigest() != before {
		t.Error("rejected scrub perturbed the tube")
	}
	if got := s.Costs(); got != costs {
		t.Errorf("rejected scrub charged costs: %+v, was %+v", got, costs)
	}
	if _, err := p.ReadBlock(0); err != nil {
		t.Errorf("read after rejected scrub: %v", err)
	}
}

// TestWearChargesAccesses pins the per-access mechanical damage: with a
// mechanical-only profile, reads attenuate the tube; without one they
// leave it untouched.
func TestWearChargesAccesses(t *testing.T) {
	prof := &decay.Profile{Mechanical: 0.01}
	s, p := buildAged(t, 1, prof)
	before := s.Tube().Total()
	if _, err := p.ReadBlock(2); err != nil {
		t.Fatal(err)
	}
	after := s.Tube().Total()
	if after >= before {
		t.Errorf("read did not wear the tube: %.1f -> %.1f", before, after)
	}
	if after < before*0.97 {
		t.Errorf("single read wore tube too much: %.1f -> %.1f", before, after)
	}
	stats := s.DecayStats()
	if stats.Accesses == 0 || stats.WearLost <= 0 {
		t.Errorf("wear stats not recorded: %+v", stats)
	}
}

// TestReadBlockHealthEscalated pins the single-block escalated read:
// content matches the classic read, health reports recovered, wear is
// charged, and digital errors come back typed.
func TestReadBlockHealthEscalated(t *testing.T) {
	prof := decay.RoomTemp()
	s, p := buildAged(t, 1, &prof)
	want, err := p.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1, 4} {
		c, h, err := p.ReadBlockHealth(3, scale)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if !h.Recovered || h.Err != nil {
			t.Fatalf("scale %g: unhealthy read of a pristine block: %+v", scale, h)
		}
		if !bytes.Equal(c, want) {
			t.Errorf("scale %g: content diverges from classic read", scale)
		}
	}
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), 1e300} {
		if _, _, err := p.ReadBlockHealth(3, scale); !errors.Is(err, ErrDepthScale) {
			t.Errorf("scale %g: want ErrDepthScale, got %v", scale, err)
		}
	}
	wear := s.DecayStats()
	if wear.Accesses == 0 {
		t.Error("escalated reads charged no wear accesses")
	}
	if _, _, err := p.ReadBlockHealth(-1, 1); !errors.Is(err, ErrBlockRange) {
		t.Errorf("negative block: %v", err)
	}
	if _, _, err := p.ReadBlockHealth(11, 1); err != nil {
		t.Errorf("written block rejected: %v", err)
	}

	// A block starved past shallow recovery must still degrade to a
	// typed report, not an error, at any scale.
	killSlots(t, s, "alice", 5, 15) // every slot extinct: unobservable
	c, h, err := p.ReadBlockHealth(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil || h.Recovered {
		t.Errorf("fully killed block read back: %+v", h)
	}
	if !errors.Is(h.Err, ErrInsufficientCoverage) && !errors.Is(h.Err, ErrRSMarginExceeded) {
		t.Errorf("killed block health error untyped: %v", h.Err)
	}
}
