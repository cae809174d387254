package experiment

import (
	"fmt"
	"io"
	"math"
	"sort"

	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/seqsim"
)

// Fig9aResult reproduces Figure 9a: the read distribution across blocks
// after whole-partition random access with the main primers.
type Fig9aResult struct {
	ReadsPerBlock map[int]int
	TotalReads    int
	AliceReads    int
	// UniformityRatio is max/min reads across non-updated blocks — the
	// paper reports natural bias within ~2x.
	UniformityRatio float64
	// UpdatedBoost is the mean reads of the co-synthesized update blocks
	// over the mean of the others (~2x, since they carry data + update).
	UpdatedBoost float64
	// Amplified is the stage-1 product pool, the input to the elongated
	// reactions of Figures 9b/9c.
	Amplified *pool.Pool
}

// Fig9a runs the baseline random access: one PCR with the Alice main
// primers on the tube, then sequencing of nReads reads.
func Fig9a(w *Wetlab, nReads int) (*Fig9aResult, error) {
	fwd, rev := w.Alice.Primers()
	params := w.Store.Config().PCR
	params.Capacity = w.Store.Config().CapacityFactor * w.Store.Tube().Total()
	amplified, _, err := pcr.Run(w.Store.Tube(), []pcr.Primer{{Fwd: fwd, Rev: rev, Conc: 1}}, params)
	if err != nil {
		return nil, err
	}
	reads, err := seqsim.Sample(w.Rng, amplified, nReads, w.Store.Config().Rates)
	if err != nil {
		return nil, err
	}
	res := &Fig9aResult{
		ReadsPerBlock: make(map[int]int),
		TotalReads:    len(reads),
		Amplified:     amplified,
	}
	for _, r := range reads {
		if r.Meta.Partition != "alice" {
			continue
		}
		res.AliceReads++
		res.ReadsPerBlock[r.Meta.OriginBlock]++
	}
	updated := make(map[int]bool)
	for _, b := range TwistUpdateBlocks {
		updated[b] = true
	}
	minN, maxN := math.MaxInt32, 0
	var updSum, othSum, updN, othN float64
	for b, n := range res.ReadsPerBlock {
		if updated[b] {
			updSum += float64(n)
			updN++
			continue
		}
		othSum += float64(n)
		othN++
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if minN > 0 {
		res.UniformityRatio = float64(maxN) / float64(minN)
	}
	if updN > 0 && othN > 0 {
		res.UpdatedBoost = (updSum / updN) / (othSum / othN)
	}
	return res, nil
}

// TargetFraction returns the fraction of the readout belonging to the
// given block (data + updates), the quantity behind the paper's 0.34%.
func (r *Fig9aResult) TargetFraction(block int) float64 {
	if r.TotalReads == 0 {
		return 0
	}
	return float64(r.ReadsPerBlock[block]) / float64(r.TotalReads)
}

// Fig9bResult reproduces Figures 9b/9c: the readout composition after
// precise random access with an elongated primer.
type Fig9bResult struct {
	Block      int
	TotalReads int
	// The three read classes of Section 7.2.
	Target    int // reads of the target block (data + its updates)
	Misprime  int // misprimed products: target prefix, foreign payload
	Carryover int // background amplified by leftover main primers
	// ReadsPerBlock maps payload origin to read counts (the 9b series).
	ReadsPerBlock map[int]int
	// Product is the stage-2 pool, reused by the Section 8 decode and
	// the misprime analysis.
	Product *pool.Pool
}

// PrefixFraction returns the fraction of reads carrying the elongated
// prefix (paper: 82% after discarding 18% carryover).
func (r *Fig9bResult) PrefixFraction() float64 {
	if r.TotalReads == 0 {
		return 0
	}
	return float64(r.Target+r.Misprime) / float64(r.TotalReads)
}

// TargetOfPrefix returns the fraction of prefix-bearing reads that are
// actual target copies (paper: 59%).
func (r *Fig9bResult) TargetOfPrefix() float64 {
	if r.Target+r.Misprime == 0 {
		return 0
	}
	return float64(r.Target) / float64(r.Target+r.Misprime)
}

// TargetOverall returns the useful-read fraction (paper: ~48%).
func (r *Fig9bResult) TargetOverall() float64 {
	if r.TotalReads == 0 {
		return 0
	}
	return float64(r.Target) / float64(r.TotalReads)
}

// Fig9Elongated runs the two-stage protocol of Section 6.5 for one
// block: the elongated forward primer plus residual main primers react
// against the pre-amplified partition (stage1, from Fig9a), and nReads
// reads are sequenced from the product.
func Fig9Elongated(w *Wetlab, stage1 *pool.Pool, block, nReads int) (*Fig9bResult, error) {
	ep, err := w.Alice.ElongatedPrimer(block)
	if err != nil {
		return nil, err
	}
	_, rev := w.Alice.Primers()
	fwd, _ := w.Alice.Primers()
	cfg := w.Store.Config()
	primers := []pcr.Primer{{Fwd: ep, Rev: rev, Conc: 1}}
	if cfg.CarryoverConc > 0 {
		primers = append(primers, pcr.Primer{Fwd: fwd, Rev: rev, Conc: cfg.CarryoverConc})
	}
	params := cfg.PCR
	params.Capacity = cfg.CapacityFactor * stage1.Total()
	product, _, err := pcr.Run(stage1, primers, params)
	if err != nil {
		return nil, err
	}
	reads, err := seqsim.Sample(w.Rng, product, nReads, cfg.Rates)
	if err != nil {
		return nil, err
	}
	res := &Fig9bResult{
		Block:         block,
		TotalReads:    len(reads),
		ReadsPerBlock: make(map[int]int),
		Product:       product,
	}
	for _, r := range reads {
		res.ReadsPerBlock[r.Meta.OriginBlock]++
		switch {
		case r.Meta.Misprimed:
			res.Misprime++
		case r.Meta.Partition == "alice" && r.Meta.OriginBlock == block:
			res.Target++
		default:
			res.Carryover++
		}
	}
	return res, nil
}

// MultiplexResult holds the outcome of the Section 6.5 multiplexed
// reaction amplifying several blocks at once.
type MultiplexResult struct {
	Blocks        []int
	TotalReads    int
	TargetReads   map[int]int
	TargetOverall float64
}

// Fig9Multiplex runs one PCR with an equal mix of elongated primers for
// several blocks, total primer concentration matching the single-primer
// case.
func Fig9Multiplex(w *Wetlab, stage1 *pool.Pool, blocks []int, nReads int) (*MultiplexResult, error) {
	cfg := w.Store.Config()
	fwd, rev := w.Alice.Primers()
	var primers []pcr.Primer
	for _, b := range blocks {
		ep, err := w.Alice.ElongatedPrimer(b)
		if err != nil {
			return nil, err
		}
		primers = append(primers, pcr.Primer{Fwd: ep, Rev: rev, Conc: 1.0 / float64(len(blocks))})
	}
	if cfg.CarryoverConc > 0 {
		primers = append(primers, pcr.Primer{Fwd: fwd, Rev: rev, Conc: cfg.CarryoverConc})
	}
	params := cfg.PCR
	params.Capacity = cfg.CapacityFactor * stage1.Total()
	product, _, err := pcr.Run(stage1, primers, params)
	if err != nil {
		return nil, err
	}
	reads, err := seqsim.Sample(w.Rng, product, nReads, cfg.Rates)
	if err != nil {
		return nil, err
	}
	res := &MultiplexResult{
		Blocks:      blocks,
		TotalReads:  len(reads),
		TargetReads: make(map[int]int),
	}
	targets := make(map[int]bool)
	for _, b := range blocks {
		targets[b] = true
	}
	total := 0
	for _, r := range reads {
		if !r.Meta.Misprimed && r.Meta.Partition == "alice" && targets[r.Meta.OriginBlock] {
			res.TargetReads[r.Meta.OriginBlock]++
			total++
		}
	}
	res.TargetOverall = float64(total) / float64(len(reads))
	return res, nil
}

// PrintFig9a writes the Figure 9a series and summary.
func PrintFig9a(out io.Writer, r *Fig9aResult) {
	fmt.Fprintf(out, "Figure 9a: whole-partition random access (%d reads, %d on Alice)\n",
		r.TotalReads, r.AliceReads)
	fmt.Fprintf(out, "  blocks observed: %d\n", len(r.ReadsPerBlock))
	fmt.Fprintf(out, "  natural bias (max/min, non-updated blocks): %.2fx (paper: within ~2x)\n",
		r.UniformityRatio)
	fmt.Fprintf(out, "  co-synthesized update blocks boost: %.2fx (paper: ~2x)\n", r.UpdatedBoost)
	for _, b := range TwistUpdateBlocks {
		fmt.Fprintf(out, "  block %d reads: %d (%.3f%% of readout; paper block 531: 0.34%%)\n",
			b, r.ReadsPerBlock[b], 100*r.TargetFraction(b))
	}
}

// PrintFig9b writes the Figure 9b/9c composition.
func PrintFig9b(out io.Writer, r *Fig9bResult) {
	fmt.Fprintf(out, "Figure 9 elongated access, block %d (%d reads)\n", r.Block, r.TotalReads)
	fmt.Fprintf(out, "  carryover (main-primer leftovers): %5.1f%%  (paper: ~18%%)\n",
		100*(1-r.PrefixFraction()))
	fmt.Fprintf(out, "  target among prefix-bearing reads: %5.1f%%  (paper: ~59%%)\n",
		100*r.TargetOfPrefix())
	fmt.Fprintf(out, "  target overall:                    %5.1f%%  (paper: ~48%%)\n",
		100*r.TargetOverall())
	// Top contaminating blocks, the visible spikes of Figure 9b.
	type kv struct{ block, reads int }
	var others []kv
	for b, n := range r.ReadsPerBlock {
		if b != r.Block {
			others = append(others, kv{b, n})
		}
	}
	// Ties break by block number: the counts come from a map, so an
	// unbroken tie would print in iteration order.
	sort.Slice(others, func(i, j int) bool {
		if others[i].reads != others[j].reads {
			return others[i].reads > others[j].reads
		}
		return others[i].block < others[j].block
	})
	fmt.Fprintf(out, "  top misprimed/carryover blocks:")
	for i, o := range others {
		if i >= 5 {
			break
		}
		fmt.Fprintf(out, " %d(%d)", o.block, o.reads)
	}
	fmt.Fprintln(out)
}
