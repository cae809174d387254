package decay

import (
	"math"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
)

func randomSeq(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

// buildPool synthesizes species copies of random length-150 strands at
// the given abundance each.
func buildPool(r *rng.Source, species int, abundance float64) *pool.Pool {
	p := pool.New()
	for i := 0; i < species; i++ {
		p.Add(randomSeq(r, 150), abundance, pool.Meta{Block: i, OriginBlock: i})
	}
	return p
}

// TestSurvivalMatchesExponential checks that abundance attenuation over
// a horizon matches the configured exponential within sampling
// tolerance, across one large step and the same horizon split into
// many small steps.
func TestSurvivalMatchesExponential(t *testing.T) {
	for _, steps := range []int{1, 20} {
		r := rng.New(11)
		prof := Accelerated()
		prof.MutantSpecies = 0 // isolate the loss channel
		p := buildPool(rng.New(7), 200, 1e4)
		before := p.Total()
		const days = 400.0
		for i := 0; i < steps; i++ {
			Age(r, p, days/float64(steps), prof)
		}
		want := math.Exp(-prof.LossRate() * days)
		got := p.Total() / before
		if got < want*0.97 || got > want*1.03 {
			t.Errorf("steps=%d: survival %.4f, configured exponential %.4f", steps, got, want)
		}
	}
}

// TestMutationAccrualMatchesConfiguration mirrors channel's
// TestErrorRatesMatchConfiguration for the decay channel: the fraction
// of surviving strands that split off as mutants must match
// 1-(1-q)^L for the configured per-base per-day hazards, and the
// realized edit distance on mutant sequences must be consistent with
// the same hazards.
func TestMutationAccrualMatchesConfiguration(t *testing.T) {
	r := rng.New(12)
	prof := RoomTemp()
	prof.Thermal, prof.Hydrolytic, prof.Oxidative = 0, 0, 0 // isolate mutation
	const days = 300.0
	const length = 150
	p := buildPool(rng.New(8), 100, 1e4)
	n := p.Len()
	before := p.Total()
	st := Age(r, p, days, prof)

	qtot := -math.Expm1(-prof.MutationRate() * days)
	wantFrac := -math.Expm1(length * math.Log1p(-qtot))
	gotFrac := st.MutantStrands / before
	if gotFrac < wantFrac*0.8 || gotFrac > wantFrac*1.2 {
		t.Errorf("mutant fraction %.5f, configured %.5f", gotFrac, wantFrac)
	}
	if st.MutantSpecies == 0 || p.Len() <= n {
		t.Fatalf("no mutant species materialized (stats %+v)", st)
	}

	// Every materialized mutant differs from its parent, carries the
	// parent's provenance, and sits within a plausible edit distance.
	var parent dna.Seq
	totalDist, mutants := 0, 0
	for i := n; i < p.Len(); i++ {
		m := p.MetaAt(i)
		parent = nil
		for j := 0; j < n; j++ {
			if pm := p.MetaAt(j); pm.Block == m.Block && pm.OriginBlock == m.OriginBlock {
				parent = p.SeqAt(j)
				break
			}
		}
		if parent == nil {
			t.Fatalf("mutant %d has no parent with block %d", i, m.Block)
		}
		d := dna.CompilePattern(parent).Distance(p.SeqAt(i))
		if d == 0 {
			t.Errorf("mutant %d identical to its parent", i)
		}
		totalDist += d
		mutants++
	}
	// Mean edits per mutant ≈ expected edits per strand conditioned on
	// ≥1 edit: qL / (1-(1-q)^L).
	wantMean := qtot * length / wantFrac
	gotMean := float64(totalDist) / float64(mutants)
	if gotMean < wantMean*0.6 || gotMean > wantMean*1.6 {
		t.Errorf("mean edits per mutant %.2f, configured %.2f", gotMean, wantMean)
	}
}

// TestSmallSpeciesCanGoExtinct checks the exact small-count branch:
// rare species must be able to die entirely, and the extinction floor
// must zero sub-molecular remnants.
func TestSmallSpeciesCanGoExtinct(t *testing.T) {
	r := rng.New(13)
	prof := Accelerated()
	prof.MutantSpecies = 0
	p := buildPool(rng.New(9), 300, 4) // 4 copies each
	var st Stats
	for i := 0; i < 6; i++ {
		st.Merge(Age(r, p, 2000, prof))
	}
	if st.SpeciesExtinct == 0 {
		t.Fatalf("no species went extinct over an extreme horizon (stats %+v)", st)
	}
	for i := 0; i < p.Len(); i++ {
		if a := p.Abundance(i); a > 0 && a < 1 {
			t.Errorf("species %d holds a sub-molecular abundance %g", i, a)
		}
	}
}

// TestTouchAttenuatesWithoutResampling checks mechanical wear: uniform
// attenuation, deterministic, composition-preserving.
func TestTouchAttenuatesWithoutResampling(t *testing.T) {
	prof := RoomTemp()
	p := buildPool(rng.New(10), 50, 1e4)
	before := p.Total()
	a0 := p.Abundance(0)
	st := Touch(p, 100, prof)
	want := math.Pow(1-prof.Mechanical, 100)
	if got := p.Total() / before; math.Abs(got-want) > 1e-9 {
		t.Errorf("wear attenuation %.8f, want %.8f", got, want)
	}
	if got := p.Abundance(0) / a0; math.Abs(got-want) > 1e-9 {
		t.Errorf("per-species wear attenuation %.8f, want %.8f", got, want)
	}
	if st.Accesses != 100 || st.WearLost <= 0 {
		t.Errorf("wear stats %+v", st)
	}
	// Disabled profile: exact no-op.
	d := p.Digest()
	if st := Touch(p, 100, Profile{}); st.Accesses != 0 || p.Digest() != d {
		t.Error("Touch with a disabled profile mutated the pool")
	}
}

// TestAgeZeroAndDisabledAreNoOps pins the no-op contract by digest:
// Age(0), a zero profile, and a nil *Profile draw nothing and change
// nothing.
func TestAgeZeroAndDisabledAreNoOps(t *testing.T) {
	p := buildPool(rng.New(14), 80, 1e4)
	d := p.Digest()
	r := rng.New(15)
	probe := rng.New(15)
	if st := Age(r, p, 0, Accelerated()); st.SpeciesAged != 0 {
		t.Errorf("Age(0) touched species: %+v", st)
	}
	if st := Age(r, p, 500, Profile{}); st.SpeciesAged != 0 {
		t.Errorf("zero profile touched species: %+v", st)
	}
	if p.Digest() != d {
		t.Fatal("no-op aging changed the pool digest")
	}
	// The rng stream must be untouched so later draws stay aligned.
	if r.Uint64() != probe.Uint64() {
		t.Fatal("no-op aging consumed randomness")
	}
	var nilProf *Profile
	if nilProf.Enabled() {
		t.Fatal("nil profile reports enabled")
	}
}

// FuzzAgeNoOp fuzzes the no-op contract: any pool shape, any horizon
// ≤ 0 or disabled profile ⇒ digest unchanged.
func FuzzAgeNoOp(f *testing.F) {
	f.Add(uint64(1), 5, 100.0)
	f.Add(uint64(99), 1, 0.0)
	f.Add(uint64(7), 40, -3.5)
	f.Fuzz(func(t *testing.T, seed uint64, species int, days float64) {
		if species < 0 || species > 200 {
			return
		}
		p := buildPool(rng.New(seed), species, 50)
		d := p.Digest()
		r := rng.New(seed ^ 0xdecade)
		if days > 0 {
			Age(r, p, days, Profile{}) // disabled profile
		} else {
			Age(r, p, days, Accelerated()) // non-positive horizon
		}
		if p.Digest() != d {
			t.Fatalf("no-op aging changed digest (seed %d species %d days %g)", seed, species, days)
		}
	})
}

// TestAgingIsDeterministic: same (seed, horizon, pool) twice ⇒ same
// digest; a different seed diverges.
func TestAgingIsDeterministic(t *testing.T) {
	// 50-day rounds: long enough to lose strands and materialize
	// mutants, short enough that the pool is not extinct by the end
	// (two fully dead tubes are identical whatever their seeds).
	run := func(seed uint64) [32]byte {
		p := buildPool(rng.New(20), 120, 1e3)
		r := rng.New(seed)
		prof := Accelerated()
		for i := 0; i < 4; i++ {
			Age(r, p, 50, prof)
			Touch(p, 10, prof)
		}
		return p.Digest()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatal("same seed produced different aged tubes")
	}
	if c := run(43); c == a {
		t.Fatal("different seeds produced identical aged tubes")
	}
}
