package pcr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"dnastore/internal/binding"
	"dnastore/internal/dna"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
)

var (
	fwdP = dna.MustFromString("ACGTACGTACGTACGTACGA")
	revP = dna.MustFromString("TGCATGCATGCATGCATGCA")
)

// strand fabricates a 150-base strand: fwd + sync A + index + filler + rev.
func strand(index string, fillerSeed uint64) dna.Seq {
	idx := dna.MustFromString(index)
	fillerLen := 150 - len(fwdP) - 1 - len(idx) - len(revP)
	r := rng.New(fillerSeed)
	filler := make(dna.Seq, fillerLen)
	for i := range filler {
		filler[i] = dna.Base(r.Intn(4))
	}
	return dna.Concat(fwdP, dna.Seq{dna.A}, idx, filler, revP)
}

// elongated returns the elongated forward primer for an index.
func elongated(index string) dna.Seq {
	return dna.Concat(fwdP, dna.Seq{dna.A}, dna.MustFromString(index))
}

func params(capacity float64) Params {
	p := DefaultParams()
	p.Capacity = capacity
	return p
}

func TestValidation(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{})
	good := []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}
	if _, _, err := Run(p, good, DefaultParams()); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, _, err := Run(p, nil, params(1e6)); err == nil {
		t.Error("no primers accepted")
	}
	if _, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 0}}, params(1e6)); err == nil {
		t.Error("zero concentration accepted")
	}
	if _, _, err := Run(p, []Primer{{Fwd: nil, Rev: revP, Conc: 1}}, params(1e6)); !errors.Is(err, ErrPrimer) {
		t.Errorf("empty primer: %v, want ErrPrimer", err)
	}
	// The binding kernels align primers of at most dna.MaxPatternLen
	// bases; a longer one is refused before the reaction runs.
	long := dna.Concat(fwdP, fwdP, fwdP, fwdP)[:dna.MaxPatternLen+1]
	if _, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: long, Conc: 1}}, params(1e6)); !errors.Is(err, ErrPrimer) {
		t.Errorf("%d-base primer: %v, want ErrPrimer", len(long), err)
	}
	if _, _, err := Run(p, []Primer{{Fwd: long[:dna.MaxPatternLen], Rev: revP, Conc: 1}}, params(1e6)); err != nil {
		t.Errorf("%d-base primer rejected: %v", dna.MaxPatternLen, err)
	}
	bad := params(1e6)
	bad.Cycles = 0
	if _, _, err := Run(p, good, bad); err == nil {
		t.Error("zero cycles accepted")
	}
	bad = params(1e6)
	bad.Efficiency = 1.5
	if _, _, err := Run(p, good, bad); err == nil {
		t.Error("efficiency > 1 accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(*Params){
		"NaN efficiency":       func(q *Params) { q.Efficiency = nan },
		"NaN capacity":         func(q *Params) { q.Capacity = nan },
		"+Inf capacity":        func(q *Params) { q.Capacity = inf },
		"NaN mismatch penalty": func(q *Params) { q.MismatchPenalty = nan },
		"NaN temp slope":       func(q *Params) { q.TempSlope = nan },
		"-Inf temp slope":      func(q *Params) { q.TempSlope = -inf },
		"NaN anneal temp":      func(q *Params) { q.AnnealTemp = nan },
		"+Inf touchdown start": func(q *Params) { q.TouchdownStart = inf },
		"NaN reference temp":   func(q *Params) { q.ReferenceTemp = nan },
	} {
		bad = params(1e6)
		mut(&bad)
		if _, _, err := Run(p, good, bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for _, conc := range []float64{nan, inf, -1} {
		if _, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: conc}}, params(1e6)); err == nil {
			t.Errorf("concentration %v accepted", conc)
		}
	}
}

func TestPerfectMatchAmplifiesExponentially(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{Block: 0, OriginBlock: 0})
	pr := []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}
	pm := params(1e12) // effectively unlimited
	pm.Cycles = 10
	out, stats, err := Run(p, pr, pm)
	if err != nil {
		t.Fatal(err)
	}
	// 10 cycles at 0.95 efficiency: gain ~(1.95)^10 ~ 790x.
	gain := out.Total() / 100
	if gain < 400 || gain > 1000 {
		t.Errorf("gain %.0fx, want ~790x", gain)
	}
	if stats.InitialTotal != 100 {
		t.Errorf("initial total %v", stats.InitialTotal)
	}
	if stats.MisprimeSpecies != 0 {
		t.Errorf("misprimes in a single-species pool: %d", stats.MisprimeSpecies)
	}
}

func TestInputPoolUnmodified(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{})
	if _, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}, params(1e9)); err != nil {
		t.Fatal(err)
	}
	if p.Total() != 100 {
		t.Errorf("input pool modified: total %v", p.Total())
	}
}

func TestUnrelatedSpeciesDoNotAmplify(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{Block: 0, OriginBlock: 0})
	// A strand with completely different primers.
	otherFwd := dna.MustFromString("GGTTCCAAGGTTCCAAGGTT")
	otherRev := dna.MustFromString("CCAATTGGCCAATTGGCCAA")
	other := dna.Concat(otherFwd, dna.MustFromString("A"), strand("ACGTACGTAC", 2)[21:130], otherRev)
	p.Add(other, 100, pool.Meta{Block: 5, OriginBlock: 5})
	pm := params(1e12)
	pm.Cycles = 10
	out, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}, pm)
	if err != nil {
		t.Fatal(err)
	}
	var targetMass, otherMass float64
	for i, n := 0, out.Len(); i < n; i++ {
		if out.MetaAt(i).Block == 5 {
			otherMass += out.Abundance(i)
		} else {
			targetMass += out.Abundance(i)
		}
	}
	if otherMass > 110 {
		t.Errorf("unrelated species amplified: %v", otherMass)
	}
	if targetMass < 40000 {
		t.Errorf("target under-amplified: %v", targetMass)
	}
}

func TestCapacityPlateau(t *testing.T) {
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 1000, pool.Meta{})
	pm := params(50_000)
	pm.Cycles = 40
	out, _, err := Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: 1}}, pm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total() > pm.Capacity*1.01 {
		t.Errorf("total %v exceeded capacity %v", out.Total(), pm.Capacity)
	}
	if out.Total() < pm.Capacity*0.5 {
		t.Errorf("total %v far below capacity; plateau too aggressive", out.Total())
	}
}

func TestMisprimeOverwritesIndexKeepsPayload(t *testing.T) {
	// Section 8.1: misprimed strands acquire the target's primer prefix
	// but retain their original payloads.
	p := pool.New()
	target := "ACGTACGTAC"
	near := "ACGTACGTGA" // edit distance 2 from target
	p.Add(strand(target, 1), 1000, pool.Meta{Block: 531, OriginBlock: 531})
	p.Add(strand(near, 2), 1000, pool.Meta{Block: 530, OriginBlock: 530})
	ep := elongated(target)
	pm := params(5e7)
	pm.Cycles = 28
	out, stats, err := Run(p, []Primer{{Fwd: ep, Rev: revP, Conc: 1}}, pm)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MisprimeSpecies == 0 {
		t.Fatal("no misprimed species created from a distance-2 neighbor")
	}
	var misprimed *pool.Species
	for i, n := 0, out.Len(); i < n; i++ {
		if out.MetaAt(i).Misprimed {
			sp := out.SpeciesAt(i)
			misprimed = &sp
			break
		}
	}
	if misprimed == nil {
		t.Fatal("misprimed species not found")
	}
	if !misprimed.Seq.HasPrefix(ep) {
		t.Error("misprimed product does not carry the elongated primer prefix")
	}
	if misprimed.Meta.OriginBlock != 530 {
		t.Errorf("misprimed payload origin %d want 530", misprimed.Meta.OriginBlock)
	}
	// The misprimed mass should be visible but the true target dominant.
	var targetMass float64
	for i, n := 0, out.Len(); i < n; i++ {
		if m := out.MetaAt(i); m.OriginBlock == 531 && !m.Misprimed {
			targetMass += out.Abundance(i)
		}
	}
	if stats.MisprimedMass <= 0 {
		t.Error("no misprimed mass")
	}
	if targetMass <= stats.MisprimedMass {
		t.Errorf("target mass %v not dominant over misprimed %v (Section 3.2 requirement)",
			targetMass, stats.MisprimedMass)
	}
}

func TestTouchdownReducesMispriming(t *testing.T) {
	// Section 6.5 uses touchdown PCR "to increase the specificity of the
	// amplification process". With the ramp disabled, the misprimed
	// fraction must grow.
	build := func() *pool.Pool {
		p := pool.New()
		p.Add(strand("ACGTACGTAC", 1), 1000, pool.Meta{Block: 1, OriginBlock: 1})
		p.Add(strand("ACGTACGTGA", 2), 1000, pool.Meta{Block: 2, OriginBlock: 2})
		p.Add(strand("ACGTACTGAC", 3), 1000, pool.Meta{Block: 3, OriginBlock: 3})
		return p
	}
	run := func(touchdown bool) float64 {
		pm := params(1e8)
		if !touchdown {
			pm.TouchdownStart = 0
		}
		out, stats, err := Run(build(), []Primer{{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1}}, pm)
		if err != nil {
			t.Fatal(err)
		}
		return stats.MisprimedMass / out.Total()
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("touchdown misprime fraction %.4f not below constant-temp %.4f", with, without)
	}
	if without == 0 {
		t.Error("no mispriming even without touchdown; model inert")
	}
}

func TestMultiplexAmplifiesAllTargets(t *testing.T) {
	// Section 6.5: an equal mix of three elongated primers with total
	// concentration equal to the single-primer case.
	p := pool.New()
	idxs := []string{"ACGTACGTAC", "CAGTCAGTCA", "GTCAGTCAGT"}
	for i, idx := range idxs {
		p.Add(strand(idx, uint64(i+1)), 1000, pool.Meta{Block: i, OriginBlock: i})
	}
	// Plus background blocks.
	p.Add(strand("TTGACCATGA", 9), 1000, pool.Meta{Block: 99, OriginBlock: 99})
	var primers []Primer
	for _, idx := range idxs {
		primers = append(primers, Primer{Fwd: elongated(idx), Rev: revP, Conc: 1.0 / 3})
	}
	pm := params(1e8)
	out, _, err := Run(p, primers, pm)
	if err != nil {
		t.Fatal(err)
	}
	mass := out.AbundanceByBlock("")
	for i := range idxs {
		if mass[i] < 100*mass[99] {
			t.Errorf("multiplex target %d mass %v not dominant over background %v",
				i, mass[i], mass[99])
		}
	}
}

func TestResidualPrimerCarryover(t *testing.T) {
	// Leftover main primers from a previous reaction amplify everything
	// in the partition at low efficiency; they are modeled as an extra
	// primer pair at low concentration. Their products caused 18% of the
	// paper's Figure 9b readout.
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 1000, pool.Meta{Block: 1, OriginBlock: 1})
	p.Add(strand("TTGACCATGA", 2), 1000, pool.Meta{Block: 2, OriginBlock: 2})
	primers := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.05}, // residual main primers
	}
	pm := params(1e7)
	out, _, err := Run(p, primers, pm)
	if err != nil {
		t.Fatal(err)
	}
	mass := out.AbundanceByBlock("")
	if mass[2] <= 1000 {
		t.Error("carryover primer did not amplify the background at all")
	}
	if mass[1] < 5*mass[2] {
		t.Errorf("target %v not dominant over carryover-amplified background %v",
			mass[1], mass[2])
	}
}

func TestAnnealTempSchedule(t *testing.T) {
	pm := DefaultParams()
	if got := pm.annealTemp(0); got != 65 {
		t.Errorf("cycle 0 temp %v want 65", got)
	}
	if got := pm.annealTemp(9); got != 56 {
		t.Errorf("cycle 9 temp %v want 56", got)
	}
	if got := pm.annealTemp(10); got != 55 {
		t.Errorf("cycle 10 temp %v want 55", got)
	}
	if got := pm.annealTemp(27); got != 55 {
		t.Errorf("cycle 27 temp %v want 55", got)
	}
	pm.TouchdownStart = 0
	if got := pm.annealTemp(0); got != 55 {
		t.Errorf("touchdown disabled: cycle 0 temp %v want 55", got)
	}
}

// suffixDistance returns the edit distance between pattern and the
// best-matching suffix of text (used by tests). Aligning against the
// empty suffix always costs exactly len(pattern), so that budget is
// tight and keeps the kernel banded — an unbounded budget here would
// defeat the banding on every call.
func suffixDistance(pattern, text dna.Seq) int {
	d, _ := dna.CompilePattern(pattern).SuffixAlignmentAtMost(text, len(pattern))
	return d
}

func TestSuffixDistance(t *testing.T) {
	if d := suffixDistance(revP, strand("ACGTACGTAC", 1)); d != 0 {
		t.Errorf("exact suffix distance %d", d)
	}
	other := dna.MustFromString("CCAATTGGCCAATTGGCCAA")
	if d := suffixDistance(other, strand("ACGTACGTAC", 1)); d < 5 {
		t.Errorf("unrelated suffix distance %d too small", d)
	}
}

func TestParamsValidateMessages(t *testing.T) {
	pm := DefaultParams()
	pm.Capacity = 0
	err := pm.Validate()
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("capacity error: %v", err)
	}
	for _, tc := range []struct {
		mut  func(*Params)
		want string
	}{
		{func(q *Params) { q.Efficiency = math.NaN() }, "efficiency NaN is not finite"},
		{func(q *Params) { q.Capacity = math.Inf(1) }, "capacity +Inf is not finite"},
		{func(q *Params) { q.MismatchPenalty = math.NaN() }, "mismatch penalty NaN is not finite"},
		{func(q *Params) { q.TempSlope = math.NaN() }, "temperature slope NaN is not finite"},
	} {
		pm := params(1e6)
		tc.mut(&pm)
		if err := pm.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("got %v, want an error containing %q", err, tc.want)
		}
	}
	p := pool.New()
	p.Add(strand("ACGTACGTAC", 1), 100, pool.Meta{})
	_, _, err = Run(p, []Primer{{Fwd: fwdP, Rev: revP, Conc: math.NaN()}}, params(1e6))
	if err == nil || !strings.Contains(err.Error(), "primer 0 concentration NaN") {
		t.Errorf("NaN concentration error: %v", err)
	}
}

func BenchmarkRunSmallPool(b *testing.B) {
	p := pool.New()
	for i := 0; i < 50; i++ {
		p.Add(strand("ACGTACGTAC", uint64(i)), 100, pool.Meta{Block: i, OriginBlock: i})
	}
	primers := []Primer{{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1}}
	pm := params(1e8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(p, primers, pm); err != nil {
			b.Fatal(err)
		}
	}
}

// buildPool fabricates a pool of n distinct strands with varied indexes.
func buildPool(n int) *pool.Pool {
	bases := "ACGT"
	p := pool.New()
	for i := 0; i < n; i++ {
		idx := make([]byte, 10)
		v := i
		for j := range idx {
			idx[j] = bases[v&3]
			v >>= 2
		}
		p.Add(strand(string(idx), uint64(i)), 100+float64(i%7), pool.Meta{Block: i, OriginBlock: i})
	}
	return p
}

// poolFingerprint captures species order, sequences and exact abundance
// bits for byte-identity comparisons.
func poolFingerprint(p *pool.Pool) []string {
	out := make([]string, 0, p.Len())
	for i, n := 0, p.Len(); i < n; i++ {
		s := p.SpeciesAt(i)
		out = append(out, s.Seq.String()+"|"+strconv.FormatUint(math.Float64bits(s.Abundance), 16))
	}
	return out
}

// TestRunWorkersDeterministic pins the tentpole contract: the amplified
// pool is byte-identical (species order, sequences, abundance bits) at
// any worker count.
func TestRunWorkersDeterministic(t *testing.T) {
	input := buildPool(64)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	base := params(64 * 100 * 40)
	var want []string
	var wantStats Stats
	for _, workers := range []int{0, 1, 2, 3, 8, -1} {
		ps := base
		ps.Workers = workers
		out, stats, err := Run(input, pr, ps)
		if err != nil {
			t.Fatal(err)
		}
		got := poolFingerprint(out)
		if want == nil {
			want, wantStats = got, stats
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d species, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d species %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
		if stats != wantStats {
			t.Fatalf("workers=%d stats %+v, want %+v", workers, stats, wantStats)
		}
	}
}

// TestRunProviderByteIdentical pins the provider contract: a reaction
// scored through a shared binding.Cache — cold, warm, or starved into
// eviction — produces a pool byte-identical to the default Direct
// provider at every worker count.
func TestRunProviderByteIdentical(t *testing.T) {
	input := buildPool(64)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	base := params(64 * 100 * 40)
	ref, refStats, err := Run(input, pr, base)
	if err != nil {
		t.Fatal(err)
	}
	want := poolFingerprint(ref)
	providers := map[string]binding.Provider{
		"cache":      binding.NewCache(0),
		"tiny-cache": binding.NewCache(64), // evicts constantly
	}
	for name, prov := range providers {
		for _, workers := range []int{1, 4, -1} {
			for pass := 0; pass < 2; pass++ { // cold then warm
				ps := base
				ps.Provider = prov
				ps.Workers = workers
				out, stats, err := Run(input, pr, ps)
				if err != nil {
					t.Fatal(err)
				}
				got := poolFingerprint(out)
				if len(got) != len(want) {
					t.Fatalf("%s workers=%d pass=%d: %d species, want %d",
						name, workers, pass, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s workers=%d pass=%d species %d = %q, want %q",
							name, workers, pass, i, got[i], want[i])
					}
				}
				if stats != refStats {
					t.Fatalf("%s workers=%d pass=%d stats %+v, want %+v",
						name, workers, pass, stats, refStats)
				}
			}
		}
	}
	if st := providers["cache"].(*binding.Cache).Stats(); st.Hits == 0 {
		t.Error("warm cached reactions recorded no hits")
	}
	if st := providers["tiny-cache"].(*binding.Cache).Stats(); st.Evictions == 0 {
		t.Error("tiny cache recorded no evictions")
	}
}

// BenchmarkPCRRun measures a full reaction over a mid-size pool, the
// unit of work of every simulated wet access.
func BenchmarkPCRRun(b *testing.B) {
	input := buildPool(256)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	ps := params(256 * 100 * 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(input, pr, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCRRunMisprimeHeavy measures a reaction in which nearly
// every template misprimes, the regime of a block read on an aged tube.
func BenchmarkPCRRunMisprimeHeavy(b *testing.B) {
	input := misprimeHeavyPool(2048)
	pr, ps := misprimeHeavyReaction(input)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(input, pr, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCRRunCached is BenchmarkPCRRun through a warm shared
// binding cache: after the first iteration every alignment is a hit,
// the cross-reaction regime of a range read.
func BenchmarkPCRRunCached(b *testing.B) {
	input := buildPool(256)
	pr := []Primer{
		{Fwd: elongated("ACGTACGTAC"), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.02},
	}
	ps := params(256 * 100 * 40)
	ps.Provider = binding.NewCache(0)
	if _, _, err := Run(input, pr, ps); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(input, pr, ps); err != nil {
			b.Fatal(err)
		}
	}
}

// misprimeTarget is the block index the misprime-heavy reaction selects.
const misprimeTarget = "ACGTACGTAC"

// misprimeHeavyPool fabricates n strands whose index regions sit 1-4
// random edits (substitutions, insertions, deletions) from
// misprimeTarget, so nearly every strand misprimes under the elongated
// primer, and the indels spread the bound template ends.
func misprimeHeavyPool(n int) *pool.Pool {
	r := rng.New(7)
	p := pool.New()
	for i := 0; i < n; i++ {
		idx := []byte(misprimeTarget)
		for string(idx) == misprimeTarget {
			for e := 1 + r.Intn(4); e > 0; e-- {
				pos := r.Intn(len(idx))
				b := "ACGT"[r.Intn(4)]
				switch r.Intn(3) {
				case 0:
					for b == idx[pos] {
						b = "ACGT"[r.Intn(4)]
					}
					idx[pos] = b
				case 1:
					idx = append(idx[:pos], append([]byte{b}, idx[pos:]...)...)
				default:
					idx = append(idx[:pos], idx[pos+1:]...)
				}
			}
		}
		p.Add(strand(string(idx), uint64(1000+i)), 50+float64(i%11),
			pool.Meta{Partition: "mp", Block: i, OriginBlock: i, Intra: i % 15})
	}
	return p
}

// misprimeHeavyReaction returns the primers and parameters of a block
// read over a misprime-heavy pool: the elongated primer plus residual
// main-primer carry-over.
func misprimeHeavyReaction(input *pool.Pool) ([]Primer, Params) {
	pr := []Primer{
		{Fwd: elongated(misprimeTarget), Rev: revP, Conc: 1},
		{Fwd: fwdP, Rev: revP, Conc: 0.05},
	}
	return pr, params(float64(input.Len()) * 60 * 40)
}

// reactionDigest hashes every output species (packed sequence,
// abundance bits, provenance) in pool order, then the reaction Stats.
func reactionDigest(out *pool.Pool, st Stats) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for i, n := 0, out.Len(); i < n; i++ {
		ps := out.PackedSeq(i)
		put(uint64(ps.Len()))
		h.Write(ps.Bytes())
		put(math.Float64bits(out.Abundance(i)))
		m := out.MetaAt(i)
		fmt.Fprintf(h, "%s/%d/%d/%d/%d/%v;", m.Partition, m.Block, m.Version, m.Intra, m.OriginBlock, m.Misprimed)
	}
	put(uint64(st.Cycles))
	put(math.Float64bits(st.InitialTotal))
	put(math.Float64bits(st.FinalTotal))
	put(uint64(st.MisprimeSpecies))
	put(math.Float64bits(st.MisprimedMass))
	return hex.EncodeToString(h.Sum(nil))
}

// misprimeHeavyGolden is reactionDigest of the misprime-heavy reaction.
// How products are staged may change; their sequences, abundances and
// provenance may not.
const misprimeHeavyGolden = "c2500dc28a5264ff4437d86c4edfd94005704636876193b24b0bcbdc1e19e2bd"

// TestRunGoldenMisprimeHeavy pins the misprime-heavy reaction's output
// bytes across worker counts and binding providers.
func TestRunGoldenMisprimeHeavy(t *testing.T) {
	input := misprimeHeavyPool(2048)
	pr, base := misprimeHeavyReaction(input)
	warm := binding.NewCache(0)
	ps := base
	ps.Provider = warm
	if _, _, err := Run(input, pr, ps); err != nil { // warm the cache
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for _, prov := range []struct {
			name string
			p    binding.Provider
		}{{"direct", binding.Direct{}}, {"warm-cache", warm}} {
			ps := base
			ps.Workers = workers
			ps.Provider = prov.p
			out, stats, err := Run(input, pr, ps)
			if err != nil {
				t.Fatal(err)
			}
			if stats.MisprimeSpecies < input.Len()/2 {
				t.Fatalf("%s workers=%d: only %d misprime species from %d templates",
					prov.name, workers, stats.MisprimeSpecies, input.Len())
			}
			if got := reactionDigest(out, stats); got != misprimeHeavyGolden {
				t.Errorf("%s workers=%d: digest %s, want %s (misprimes %d, species %d)",
					prov.name, workers, got, misprimeHeavyGolden, stats.MisprimeSpecies, out.Len())
			}
		}
	}
}

// TestRunMisprimeAllocs pins the cost of a misprime: building and
// adding a product reuses one per-reaction buffer, so a reaction's
// allocations stay a small fraction of the misprime species it creates
// (what remains is table, delta and pool growth, all amortized).
func TestRunMisprimeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin is meaningless")
	}
	input := misprimeHeavyPool(2048)
	pr, ps := misprimeHeavyReaction(input)
	_, stats, err := Run(input, pr, ps)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := Run(input, pr, ps); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / float64(stats.MisprimeSpecies)
	t.Logf("%.0f allocs per reaction, %d misprime species, %.4f allocs per misprime", allocs, stats.MisprimeSpecies, per)
	if per >= 0.1 {
		t.Errorf("%.3f allocs per misprime species, want < 0.1", per)
	}
}
