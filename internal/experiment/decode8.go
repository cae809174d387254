package experiment

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"dnastore/internal/blockstore"
	"dnastore/internal/dna"
	"dnastore/internal/seqsim"
	"dnastore/internal/update"
)

// DecodeResult reproduces Section 8: decoding a target block and its
// update from a small read sample of the elongated-primer product.
type DecodeResult struct {
	Block        int
	ReadsUsed    int // paper: 225
	ClustersUsed int // paper: 31 for 30 strands
	// OriginalOK and UpdateOK report bit-exact recovery of the data
	// block and the applied update.
	OriginalOK bool
	UpdateOK   bool
	// BaselineReads is what whole-partition access would need for the
	// same recovery (paper: ~50000).
	BaselineReads int
}

// Decode8 decodes the target block from the Figure 9b product with a
// streaming-sequencer protocol: it samples startReads reads, attempts
// the full software pipeline (trim, cluster, two-sided BMA in
// descending cluster size, RS decode, patch application), and draws 50%
// more reads on failure — the Section 7.4 Nanopore model where
// "sequencing can be stopped once the data is successfully decoded".
func Decode8(w *Wetlab, b *Fig9bResult, startReads int) (*DecodeResult, error) {
	const maxReads = 8000
	var seqs []dna.Seq
	var bv *blockstore.BlockVersions
	total := 0
	want := startReads
	for {
		grow := want - total
		reads, err := seqsim.Sample(w.Rng, b.Product, grow, w.Store.Config().Rates)
		if err != nil {
			return nil, err
		}
		for _, r := range reads {
			seqs = append(seqs, r.Seq)
		}
		total = len(seqs)
		got, err := w.Alice.DecodeReads(seqs, b.Block)
		if err == nil {
			// The Section 8 claim covers both the original and the
			// updated block; keep sequencing until the expected patch
			// decodes too.
			_, expectPatch := w.Patches[b.Block]
			if !expectPatch || len(got.Patches) > 0 {
				bv = got
				break
			}
			err = fmt.Errorf("decode: update version not yet recovered")
		}
		if total >= maxReads {
			return nil, err
		}
		want = total + total/2
		if want > maxReads {
			want = maxReads
		}
	}
	res := &DecodeResult{
		Block:        b.Block,
		ReadsUsed:    total,
		ClustersUsed: bv.ClustersUsed,
	}
	wantOriginal := w.Book[b.Block*BlockBytes : (b.Block+1)*BlockBytes]
	res.OriginalOK = bytes.Equal(bv.Data, wantOriginal)
	if patch, ok := w.Patches[b.Block]; ok {
		wantUpdated, err := patch.Apply(wantOriginal)
		if err != nil {
			return nil, err
		}
		gotUpdated, err := update.ApplyAll(bv.Data, bv.Patches)
		if err == nil {
			res.UpdateOK = bytes.Equal(gotUpdated, wantUpdated)
		}
	}
	strands := w.AliceStrands()
	baseline, err := seqsim.CoverageReadsNeeded(30, float64(total)/30.0, 30.0/float64(strands))
	if err != nil {
		return nil, err
	}
	res.BaselineReads = baseline
	return res, nil
}

// PrintDecode writes the Section 8 outcome.
func PrintDecode(out io.Writer, d *DecodeResult) {
	fmt.Fprintf(out, "Section 8 decode, block %d\n", d.Block)
	fmt.Fprintf(out, "  reads used: %d (paper: 225); clusters consumed: %d (paper: 31)\n",
		d.ReadsUsed, d.ClustersUsed)
	fmt.Fprintf(out, "  original recovered: %v; update recovered and applied: %v\n",
		d.OriginalOK, d.UpdateOK)
	fmt.Fprintf(out, "  baseline would need ~%d reads (paper: ~50000)\n", d.BaselineReads)
}

// MisprimeResult reproduces the Section 8.1 analysis of which blocks
// contaminate a precise access.
type MisprimeResult struct {
	Block int
	// MassByDist aggregates misprimed product abundance by the edit
	// distance between the contaminating block's index and the target
	// index (paper: "usually 2 or 3 edit distance apart").
	MassByDist map[int]float64
	// TotalMisprimeMass is the denominator.
	TotalMisprimeMass float64
}

// Misprime analyzes the Figure 9b product pool.
func Misprime(w *Wetlab, b *Fig9bResult) (*MisprimeResult, error) {
	tree := w.Alice.Tree()
	targetIdx, err := tree.Encode(b.Block)
	if err != nil {
		return nil, err
	}
	res := &MisprimeResult{Block: b.Block, MassByDist: make(map[int]float64)}
	// The target index is compared against every misprimed species, so
	// compile it once; index distances are bounded by the index length,
	// which keeps the kernel's budget real.
	targetPat := dna.CompilePattern(targetIdx)
	for i, n := 0, b.Product.Len(); i < n; i++ {
		meta := b.Product.MetaAt(i)
		if !meta.Misprimed || meta.Partition != "alice" {
			continue
		}
		idx, err := tree.Encode(meta.OriginBlock)
		if err != nil {
			continue
		}
		d := targetPat.Distance(idx)
		a := b.Product.Abundance(i)
		res.MassByDist[d] += a
		res.TotalMisprimeMass += a
	}
	return res, nil
}

// DominantDistances returns the distances sorted by descending mass.
func (m *MisprimeResult) DominantDistances() []int {
	var ds []int
	for d := range m.MassByDist {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return m.MassByDist[ds[i]] > m.MassByDist[ds[j]] })
	return ds
}

// PrintMisprime writes the Section 8.1 histogram.
func PrintMisprime(out io.Writer, m *MisprimeResult) {
	fmt.Fprintf(out, "Section 8.1 misprime analysis, block %d\n", m.Block)
	var ds []int
	for d := range m.MassByDist {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	for _, d := range ds {
		fmt.Fprintf(out, "  index edit distance %d: %5.1f%% of misprimed mass\n",
			d, 100*m.MassByDist[d]/m.TotalMisprimeMass)
	}
	fmt.Fprintln(out, "  (paper: misprimed strands were usually 2 or 3 edit distance from the target)")
}
