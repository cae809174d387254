package experiment

import (
	"bytes"
	"sync"
	"testing"
)

// The full wetlab build is shared across tests; experiments clone or
// sample from it without mutating the tube (Fig10 protocols work on
// clones via the mix package, which copies pools).
var (
	wetlabOnce sync.Once
	wetlab     *Wetlab
	wetlabErr  error

	fig9aOnce sync.Once
	fig9aRes  *Fig9aResult
	fig9aErr  error

	fig9bOnce sync.Once
	fig9bRes  *Fig9bResult
	fig9bErr  error
)

func sharedWetlab(t *testing.T) *Wetlab {
	t.Helper()
	wetlabOnce.Do(func() {
		wetlab, wetlabErr = Build(Options{})
	})
	if wetlabErr != nil {
		t.Fatal(wetlabErr)
	}
	return wetlab
}

func sharedFig9a(t *testing.T) *Fig9aResult {
	t.Helper()
	w := sharedWetlab(t)
	fig9aOnce.Do(func() {
		fig9aRes, fig9aErr = Fig9a(w, 50000)
	})
	if fig9aErr != nil {
		t.Fatal(fig9aErr)
	}
	return fig9aRes
}

func sharedFig9b(t *testing.T) *Fig9bResult {
	t.Helper()
	w := sharedWetlab(t)
	a := sharedFig9a(t)
	fig9bOnce.Do(func() {
		fig9bRes, fig9bErr = Fig9Elongated(w, a.Amplified, 531, 50000)
	})
	if fig9bErr != nil {
		t.Fatal(fig9bErr)
	}
	return fig9bRes
}

func TestBuildMatchesPaperScale(t *testing.T) {
	w := sharedWetlab(t)
	// Section 8: 8805 data strands + 45 Twist update strands.
	if got := w.AliceStrands(); got != 8850 {
		t.Errorf("Alice strands %d want 8850", got)
	}
	if len(w.Book) != AliceBlocks*BlockBytes {
		t.Errorf("book size %d", len(w.Book))
	}
	if len(w.Patches) != 6 {
		t.Errorf("%d updated blocks want 6", len(w.Patches))
	}
	if w.IDTPool.Len() != 45 {
		t.Errorf("IDT pool %d strands want 45", w.IDTPool.Len())
	}
	// Vendor gap ~50000x (Section 6.4.1).
	tube := w.Store.Tube()
	gap := (w.IDTPool.Total() / float64(w.IDTPool.Len())) /
		(tube.Total() / float64(tube.Len()))
	if gap < 10000 || gap > 200000 {
		t.Errorf("vendor concentration gap %.0fx want ~50000x", gap)
	}
	if w.Store.Costs().PrimerPairsUsed != 13 {
		t.Errorf("primer pairs %d want 13 (files)", w.Store.Costs().PrimerPairsUsed)
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	last := r.Primer20[len(r.Primer20)-1]
	if last.CapacityLog2Bytes < 210 {
		t.Errorf("max capacity 2^%.0f, paper ~2^217", last.CapacityLog2Bytes)
	}
	// The capacity crosses the world's-data line well before max L.
	crossed := false
	for _, p := range r.Primer20 {
		if p.CapacityLog2Bytes > r.WorldDataLog2Bytes {
			crossed = true
			break
		}
	}
	if !crossed {
		t.Error("capacity never crosses world's 2023 data")
	}
	if r.Primer20[0].BitsPerBase < 1.4 {
		t.Errorf("L=0 density %.2f want ~1.45", r.Primer20[0].BitsPerBase)
	}
	// 30-base primers sit strictly below at L=0.
	if r.Primer30[0].BitsPerBase >= r.Primer20[0].BitsPerBase {
		t.Error("30-base primer density not below 20-base")
	}
	var buf bytes.Buffer
	PrintFig3(&buf, r)
	if buf.Len() == 0 {
		t.Error("empty Fig3 output")
	}
}

func TestFig9aShape(t *testing.T) {
	a := sharedFig9a(t)
	if len(a.ReadsPerBlock) != AliceBlocks {
		t.Errorf("observed %d blocks want %d", len(a.ReadsPerBlock), AliceBlocks)
	}
	// "minimal bias (within 2x)" — allow slack for sampling noise.
	if a.UniformityRatio > 3.0 {
		t.Errorf("uniformity ratio %.2f, paper within ~2x", a.UniformityRatio)
	}
	// Update-carrying blocks stand out at ~2x.
	if a.UpdatedBoost < 1.6 || a.UpdatedBoost > 2.6 {
		t.Errorf("updated-block boost %.2f, paper ~2x", a.UpdatedBoost)
	}
	// Target fraction ~0.34%.
	f := a.TargetFraction(531)
	if f < 0.002 || f > 0.006 {
		t.Errorf("block 531 fraction %.4f, paper 0.0034", f)
	}
	// Nearly all reads belong to the target partition (file 13).
	if frac := float64(a.AliceReads) / float64(a.TotalReads); frac < 0.9 {
		t.Errorf("Alice read share %.2f; partition access should dominate", frac)
	}
}

func TestFig9bShape(t *testing.T) {
	b := sharedFig9b(t)
	carry := 1 - b.PrefixFraction()
	if carry < 0.10 || carry > 0.30 {
		t.Errorf("carryover %.2f, paper ~0.18", carry)
	}
	top := b.TargetOfPrefix()
	if top < 0.45 || top > 0.75 {
		t.Errorf("target-of-prefix %.2f, paper ~0.59", top)
	}
	overall := b.TargetOverall()
	if overall < 0.35 || overall > 0.65 {
		t.Errorf("overall target %.2f, paper ~0.48", overall)
	}
	if b.Misprime == 0 {
		t.Error("no mispriming observed; model inert")
	}
}

func TestFig9cOtherBlock(t *testing.T) {
	w := sharedWetlab(t)
	a := sharedFig9a(t)
	c, err := Fig9Elongated(w, a.Amplified, 144, 50000)
	if err != nil {
		t.Fatal(err)
	}
	// The paper says other blocks look similar; the target must dominate
	// every other single block even where the misprime set differs.
	if c.TargetOverall() < 0.25 {
		t.Errorf("block 144 overall target %.2f too low", c.TargetOverall())
	}
	best := 0
	for blk, n := range c.ReadsPerBlock {
		if blk != 144 && n > best {
			best = n
		}
	}
	if c.ReadsPerBlock[144] <= 2*best {
		t.Errorf("target 144 (%d reads) not clearly dominant over best contaminant (%d)",
			c.ReadsPerBlock[144], best)
	}
}

func TestFig9Multiplex(t *testing.T) {
	w := sharedWetlab(t)
	a := sharedFig9a(t)
	m, err := Fig9Multiplex(w, a.Amplified, TwistUpdateBlocks, 50000)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range TwistUpdateBlocks {
		if m.TargetReads[b] < 1000 {
			t.Errorf("multiplex target %d got only %d reads", b, m.TargetReads[b])
		}
	}
	// Splitting primer concentration three ways slows each target's
	// growth, so the useful fraction sits below the single-target 48%
	// but remains ~50x above the baseline's 3x0.34%.
	if m.TargetOverall < 0.15 {
		t.Errorf("multiplex overall target %.2f", m.TargetOverall)
	}
}

func TestCostReduction(t *testing.T) {
	a := sharedFig9a(t)
	b := sharedFig9b(t)
	c := Cost(a, b)
	// Paper: 293x baseline waste, 1.08x ours, 141x reduction. Allow a
	// generous band — the shape claim is order-of-magnitude.
	if c.BaselineWaste < 150 || c.BaselineWaste > 500 {
		t.Errorf("baseline waste %.0fx, paper 293x", c.BaselineWaste)
	}
	if c.OursWaste > 2 {
		t.Errorf("our waste %.2fx, paper 1.08x", c.OursWaste)
	}
	if c.Reduction < 80 || c.Reduction > 250 {
		t.Errorf("cost reduction %.0fx, paper ~141x", c.Reduction)
	}
}

func TestLatencyModels(t *testing.T) {
	a := sharedFig9a(t)
	b := sharedFig9b(t)
	l, err := Latency(Cost(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if l.NGSPartitionRuns < 500 {
		t.Errorf("1TB partition needs %d runs, paper ~1000+", l.NGSPartitionRuns)
	}
	if l.NGSRunReduction < 50 {
		t.Errorf("NGS run reduction %.0fx", l.NGSRunReduction)
	}
	if l.NanoporeReduction < 80 {
		t.Errorf("nanopore reduction %.0fx, paper ~141x", l.NanoporeReduction)
	}
}

func TestUpdateCosts(t *testing.T) {
	w := sharedWetlab(t)
	b := sharedFig9b(t)
	u, err := UpdateCost(w, b)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline partition packs the corpus at full density (264 B/unit,
	// no 256 B block alignment), so it resynthesizes ceil(150272/264)*15
	// = 8550 strands vs the paper's 8805 — same ~580x order.
	wantBaseline := (len(sharedWetlab(t).Book) + 263) / 264 * 15
	if u.BaselineSynthesis != wantBaseline {
		t.Errorf("baseline resynthesis %d strands want %d", u.BaselineSynthesis, wantBaseline)
	}
	if u.SynthesisReduction < 500 || u.SynthesisReduction > 700 {
		t.Errorf("synthesis reduction %.0fx, paper ~580x", u.SynthesisReduction)
	}
	if u.ReadReduction < 80 || u.ReadReduction > 300 {
		t.Errorf("read reduction %.0fx, paper ~146x", u.ReadReduction)
	}
	if u.BaselinePrimerPairsWasted != 1 || u.OursPrimerPairsWasted != 0 {
		t.Errorf("primer waste %d/%d want 1/0",
			u.BaselinePrimerPairsWasted, u.OursPrimerPairsWasted)
	}
}

func TestDecodeSection8(t *testing.T) {
	w := sharedWetlab(t)
	b := sharedFig9b(t)
	d, err := Decode8(w, b, 225)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OriginalOK {
		t.Error("original block not recovered from 225 reads")
	}
	if !d.UpdateOK {
		t.Error("update not recovered/applied from 225 reads")
	}
	// Paper consumed 31 clusters for 30 strands; our count also includes
	// singleton carryover clusters processed before completion.
	if d.ClustersUsed < 30 || d.ClustersUsed > 400 {
		t.Errorf("clusters used %d, paper 31", d.ClustersUsed)
	}
	if d.BaselineReads < 40000 {
		t.Errorf("baseline estimate %d reads, paper ~50000", d.BaselineReads)
	}
}

func TestMisprimeDistances(t *testing.T) {
	w := sharedWetlab(t)
	b := sharedFig9b(t)
	m, err := Misprime(w, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalMisprimeMass <= 0 {
		t.Fatal("no misprimed mass")
	}
	// Section 8.1: misprimed strands are "usually 2 or 3 edit distance"
	// from the target: the majority of misprimed mass at d <= 3.
	close := m.MassByDist[1] + m.MassByDist[2] + m.MassByDist[3]
	if frac := close / m.TotalMisprimeMass; frac < 0.5 {
		t.Errorf("misprime mass at d<=3 is %.2f, paper concentrates at 2-3", frac)
	}
	ds := m.DominantDistances()
	if len(ds) == 0 || ds[0] > 3 {
		t.Errorf("dominant misprime distance %v, paper 2-3", ds)
	}
}

func TestFig10Protocols(t *testing.T) {
	w := sharedWetlab(t)
	for _, proto := range []string{"measure-then-amplify", "amplify-then-measure"} {
		r, err := Fig10(w, proto, 400000)
		if err != nil {
			t.Fatal(err)
		}
		if r.VendorGap < 10000 {
			t.Errorf("%s: vendor gap %.0fx want ~50000x", proto, r.VendorGap)
		}
		if r.Imbalance == 0 || r.Imbalance > 2.5 {
			t.Errorf("%s: imbalance %.2fx, paper within ~2x", proto, r.Imbalance)
		}
		for _, b := range IDTUpdateBlocks {
			c := r.PerBlock[b]
			if c[0] == 0 || c[1] == 0 {
				t.Errorf("%s block %d: zero reads (orig %d upd %d)", proto, b, c[0], c[1])
				continue
			}
			ratio := float64(c[0]) / float64(c[1])
			if ratio < 0.33 || ratio > 3 {
				t.Errorf("%s block %d: original/update ratio %.2f outside ~2x band",
					proto, b, ratio)
			}
		}
	}
	if _, err := Fig10(w, "nonsense", 100); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestScaleStudy(t *testing.T) {
	r, err := Scale()
	if err != nil {
		t.Fatal(err)
	}
	// Misprime fraction grows with block count...
	if r.MisprimeByBlockCount[3] > r.MisprimeByBlockCount[5] {
		t.Errorf("misprime not increasing with block count: %v", r.MisprimeByBlockCount)
	}
	// ...but is insensitive to block size (Section 7.7.2).
	lo, hi := r.MisprimeByPayload[48], r.MisprimeByPayload[48]
	for _, f := range r.MisprimeByPayload {
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi > 3*lo+0.02 {
		t.Errorf("misprime varies with payload size: %v", r.MisprimeByPayload)
	}
	if r.TwoSidedBlocks != 1<<20 {
		t.Errorf("two-sided blocks %d want 4^10", r.TwoSidedBlocks)
	}
	if !r.TwoSidedOK {
		t.Error("two-sided round trip failed")
	}
}

// TestStreamStudy runs the decode-stream study at scale 1: its range
// read returns the written content, patches applied, on fewer reads
// than the full budget its covers provision, and ejects off-target
// molecules on the way.
func TestStreamStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("wet-lab simulation is slow")
	}
	r, err := StreamStudy(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.RangeOK {
		t.Error("range read does not return the written content")
	}
	if r.StreamReads <= 0 || r.StreamReads >= r.RangeBudget || r.StreamEjected == 0 {
		t.Errorf("range read sequenced %d reads of a %d-read budget and ejected %d",
			r.StreamReads, r.RangeBudget, r.StreamEjected)
	}
}

func TestTreeAblationStudy(t *testing.T) {
	r, err := TreeAblation()
	if err != nil {
		t.Fatal(err)
	}
	sparse := r.MisprimeByVariant["sparse"]
	dense := r.MisprimeByVariant["dense"]
	if sparse >= dense {
		t.Errorf("sparse misprime %.3f not below dense %.3f", sparse, dense)
	}
	if r.GCDeviation["sparse"] != 0 {
		t.Errorf("sparse GC deviation %.3f want 0", r.GCDeviation["sparse"])
	}
	if r.MaxHomopolymer["sparse"] > 2 {
		t.Errorf("sparse max homopolymer %d want <=2", r.MaxHomopolymer["sparse"])
	}
	if r.MaxHomopolymer["dense"] <= 2 {
		t.Error("dense variant should allow long homopolymers")
	}
}

func TestDensityOverheads(t *testing.T) {
	d := Density()
	if d.Loss150 < 0.02 || d.Loss150 > 0.07 {
		t.Errorf("150-base loss %.3f, paper ~3%%", d.Loss150)
	}
	if d.Loss1500 > 0.005 {
		t.Errorf("1500-base loss %.4f, paper ~0.3%%", d.Loss1500)
	}
	if d.Primer30 < 0.15 || d.Primer30 > 0.25 {
		t.Errorf("30-base primer loss %.3f, paper ~22%%", d.Primer30)
	}
}

func TestCacheStudy(t *testing.T) {
	r, err := Cache(1024, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitRate["LRU/256"] <= r.HitRate["LRU/16"] {
		t.Error("larger cache should hit more")
	}
	if r.HitRate["LFU/64"] < 0.4 {
		t.Errorf("LFU/64 hit rate %.2f too low under Zipf", r.HitRate["LFU/64"])
	}
}

func TestPrimerYieldScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("primer yield search is slow")
	}
	r := PrimerYield(40000)
	if r.Yield30 <= r.Yield20 {
		t.Errorf("length-30 yield %d not above length-20 %d", r.Yield30, r.Yield20)
	}
	if r.Ratio > 5 {
		t.Errorf("yield ratio %.1fx implausibly super-linear", r.Ratio)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	w := sharedWetlab(t)
	a := sharedFig9a(t)
	b := sharedFig9b(t)
	var buf bytes.Buffer
	PrintFig9a(&buf, a)
	PrintFig9b(&buf, b)
	PrintCost(&buf, Cost(a, b))
	d := Density()
	PrintDensity(&buf, d)
	if buf.Len() < 200 {
		t.Error("printers produced little output")
	}
	_ = w
}
