package experiment

import (
	"fmt"
	"io"

	"dnastore/internal/blockstore"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/seqsim"
)

// CostResult reproduces Sections 7.1 and 7.3: the sequencing-cost
// arithmetic comparing whole-partition retrieval against the elongated
// block access.
type CostResult struct {
	Block int
	// BaselineUseful is the fraction of useful reads when retrieving the
	// block via whole-partition access (paper: 0.34%).
	BaselineUseful float64
	// OursUseful is the useful fraction under elongated access (~48%).
	OursUseful float64
	// BaselineWaste and OursWaste are the x-amounts of unwanted data
	// sequenced per unit of wanted data (paper: 293x and 1.08x).
	BaselineWaste float64
	OursWaste     float64
	// Reduction is the sequencing-cost reduction factor
	// (paper: (293+1)/(1.08+1) = 141x).
	Reduction float64
}

// Cost computes the Section 7.3 numbers from the two Figure 9 runs.
func Cost(a *Fig9aResult, b *Fig9bResult) CostResult {
	res := CostResult{Block: b.Block}
	res.BaselineUseful = a.TargetFraction(b.Block)
	res.OursUseful = b.TargetOverall()
	if res.BaselineUseful > 0 {
		res.BaselineWaste = 1/res.BaselineUseful - 1
	}
	if res.OursUseful > 0 {
		res.OursWaste = 1/res.OursUseful - 1
	}
	res.Reduction = (res.BaselineWaste + 1) / (res.OursWaste + 1)
	return res
}

// PrintCost writes the Section 7.3 comparison.
func PrintCost(out io.Writer, c CostResult) {
	fmt.Fprintf(out, "Sequencing cost, block %d (Sections 7.1/7.3)\n", c.Block)
	fmt.Fprintf(out, "  baseline useful fraction: %6.3f%%  -> %5.0fx unwanted (paper: 0.34%% -> 293x)\n",
		100*c.BaselineUseful, c.BaselineWaste)
	fmt.Fprintf(out, "  ours useful fraction:     %6.1f%%  -> %5.2fx unwanted (paper: 48%% -> 1.08x)\n",
		100*c.OursUseful, c.OursWaste)
	fmt.Fprintf(out, "  sequencing cost reduction: %.0fx (paper: ~141x)\n", c.Reduction)
}

// LatencyResult reproduces Section 7.4's two sequencing-latency models.
type LatencyResult struct {
	Reduction float64 // useful-fraction-derived reduction factor

	// NGS scenario: a 1TB partition needing ~1000 MiSeq runs.
	NGSPartitionRuns int
	NGSBlockRuns     int
	NGSRunReduction  float64

	// Nanopore: streaming latency is linear in reads.
	NanoporePartitionHours float64
	NanoporeBlockHours     float64
	NanoporeReduction      float64
}

// Latency evaluates both sequencing models at the paper's 1TB example
// scale using the measured cost reduction.
func Latency(c CostResult) (LatencyResult, error) {
	res := LatencyResult{Reduction: c.Reduction}
	ngs := seqsim.MiSeqLike()
	// Section 7.4's example: sequencing a 1TB partition at one MiSeq run
	// per GB of user output needs ~1000 runs; with ~6.6M reads per run
	// that is ~6.6e9 reads.
	partitionReads := 6_600_000_000
	blockReads := int(float64(partitionReads) / c.Reduction)
	res.NGSPartitionRuns = ngs.RunsNeeded(partitionReads)
	res.NGSBlockRuns = ngs.RunsNeeded(blockReads)
	if res.NGSBlockRuns > 0 {
		res.NGSRunReduction = float64(res.NGSPartitionRuns) / float64(res.NGSBlockRuns)
	}
	nano := seqsim.MinIONLike()
	// Nanopore at experiment scale: reads to decode the whole partition
	// vs the block, derived from useful fractions.
	partReads, err := seqsim.CoverageReadsNeeded(8850, 10, 0.98)
	if err != nil {
		return res, err
	}
	blkReads, err := seqsim.CoverageReadsNeeded(30, 10, c.OursUseful)
	if err != nil {
		return res, err
	}
	res.NanoporePartitionHours = nano.Latency(partReads)
	res.NanoporeBlockHours = nano.Latency(blkReads)
	if res.NanoporeBlockHours > 0 {
		res.NanoporeReduction = res.NanoporePartitionHours / res.NanoporeBlockHours
	}
	return res, nil
}

// PrintLatency writes the Section 7.4 analysis.
func PrintLatency(out io.Writer, l LatencyResult) {
	fmt.Fprintln(out, "Sequencing latency (Section 7.4)")
	fmt.Fprintf(out, "  NGS (MiSeq-like), 1TB partition: %d runs vs %d runs for one block -> %.0fx (paper: ~141x, ~1000 runs)\n",
		l.NGSPartitionRuns, l.NGSBlockRuns, l.NGSRunReduction)
	fmt.Fprintf(out, "  Nanopore streaming: %.2f h vs %.4f h -> %.0fx (paper: linear reduction, ~141x)\n",
		l.NanoporePartitionHours, l.NanoporeBlockHours, l.NanoporeReduction)
}

// UpdateCostResult reproduces Section 7.5: synthesis and sequencing
// costs of an update under the naïve baseline versus versioned patches.
type UpdateCostResult struct {
	// Synthesis cost in strands.
	BaselineSynthesis  int     // whole partition resynthesized (8805)
	OursSynthesis      int     // one patch unit (15)
	SynthesisReduction float64 // ~580x

	// Sequencing cost of reading the updated block.
	BaselineReads int
	OursReads     int
	ReadReduction float64 // ~146x

	// Hidden costs (Section 7.5.1).
	BaselinePrimerPairsWasted int
	OursPrimerPairsWasted     int
}

// baselineStore builds the prior-work store Section 7.5 compares
// against: dense addresses over the whole 10-base index field (up to
// 4^10 units per object) and unpadded, unsealed 264-byte units, so an
// object packs at full density.
func baselineStore(primers []dna.Seq) (*blockstore.Store, error) {
	cfg := blockstore.DefaultConfig()
	cfg.Variant = indextree.Dense
	cfg.TreeDepth = cfg.Geometry.IndexLen
	cfg.PadBytes = 0
	return blockstore.New(cfg, primers)
}

// naiveUpdate writes data whole as generation gen of the named object
// (Section 5.1): a fresh partition "name#gen" under the next primer
// pair. Generation 0 is the object's first write; every later one is a
// naïve update, which leaves the old copy in the tube and its primer
// pair wasted.
func naiveUpdate(s *blockstore.Store, name string, gen int, data []byte) (*blockstore.Partition, error) {
	p, err := s.CreatePartition(fmt.Sprintf("%s#%d", name, gen))
	if err != nil {
		return nil, err
	}
	if _, err := p.Write(data); err != nil {
		return nil, err
	}
	return p, nil
}

// UpdateCost measures the naïve baseline with a real run on a baseline
// store and compares against the versioned update path.
func UpdateCost(w *Wetlab, b *Fig9bResult) (UpdateCostResult, error) {
	var res UpdateCostResult

	// Baseline: store the same corpus as one object, then perform one
	// naïve update and read the costs off the baseline store's meters.
	primers, err := SearchPrimers(99, 4)
	if err != nil {
		return res, err
	}
	baseline, err := baselineStore(primers)
	if err != nil {
		return res, err
	}
	if _, err := naiveUpdate(baseline, "alice", 0, w.Book); err != nil {
		return res, err
	}
	before := baseline.Costs()
	updated := append([]byte(nil), w.Book...)
	updated[b.Block*BlockBytes] ^= 0xff
	if _, err := naiveUpdate(baseline, "alice", 1, updated); err != nil {
		return res, err
	}
	delta := baseline.Costs().Sub(before)
	res.BaselineSynthesis = delta.StrandsSynthesized
	// Each update takes a fresh pair while the old one still tags the
	// dead copy: one pair wasted per update.
	res.BaselinePrimerPairsWasted = delta.PrimerPairsUsed

	// Ours: a patch is one encoding unit of 15 molecules.
	res.OursSynthesis = 15
	res.OursPrimerPairsWasted = 0
	res.SynthesisReduction = float64(res.BaselineSynthesis) / float64(res.OursSynthesis)

	// Sequencing: reading the updated block (30 strands: data + patch) at
	// 10x coverage from whole-partition output vs the precise readout.
	strands := w.AliceStrands()
	baseReads, err := seqsim.CoverageReadsNeeded(30, 10, 30.0/float64(strands))
	if err != nil {
		return res, err
	}
	usable := b.TargetOverall()
	ourReads, err := seqsim.CoverageReadsNeeded(30, 10, usable)
	if err != nil {
		return res, err
	}
	res.BaselineReads = baseReads
	res.OursReads = ourReads
	res.ReadReduction = float64(baseReads) / float64(ourReads)
	return res, nil
}

// PrintUpdateCost writes the Section 7.5 comparison.
func PrintUpdateCost(out io.Writer, u UpdateCostResult) {
	fmt.Fprintln(out, "Update costs (Section 7.5)")
	fmt.Fprintf(out, "  synthesis: baseline %d strands vs ours %d -> %.0fx reduction (paper: ~580x)\n",
		u.BaselineSynthesis, u.OursSynthesis, u.SynthesisReduction)
	fmt.Fprintf(out, "  sequencing updated block: baseline %d reads vs ours %d -> %.0fx (paper: ~146x)\n",
		u.BaselineReads, u.OursReads, u.ReadReduction)
	fmt.Fprintf(out, "  primer pairs wasted per update: baseline %d vs ours %d (Section 7.5.1)\n",
		u.BaselinePrimerPairsWasted, u.OursPrimerPairsWasted)
}
