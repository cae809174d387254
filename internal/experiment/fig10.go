package experiment

import (
	"fmt"
	"io"

	"dnastore/internal/mix"
	"dnastore/internal/pcr"
	"dnastore/internal/seqsim"
)

// Fig10Result reproduces Figure 10 and Section 7.6: the read counts of
// original versus update molecules for the IDT-updated paragraphs after
// physically mixing pools whose concentrations differed by 50000x.
type Fig10Result struct {
	Protocol string
	// PerBlock maps each updated block to its original and update read
	// counts.
	PerBlock map[int][2]int // [original, update]
	// Imbalance is the realized per-molecule concentration mismatch.
	Imbalance float64
	// VendorGap is the raw per-molecule gap before mixing (paper:
	// 50000x).
	VendorGap float64
}

// Fig10 runs one of the two Section 6.4.2 protocols and sequences the
// mixed pool.
func Fig10(w *Wetlab, protocol string, nReads int) (*Fig10Result, error) {
	cfg := w.Store.Config()
	fwd, rev := w.Alice.Primers()
	opt := mix.Options{
		MeasurementCV: 0.03,
		Primers:       []pcr.Primer{{Fwd: fwd, Rev: rev, Conc: 1}},
		PCR: func() pcr.Params {
			p := cfg.PCR
			p.Cycles = 15 // Section 6.4.2 uses 15-cycle amplifications
			return p
		}(),
	}
	orig := w.Store.Tube()
	upd := w.IDTPool
	if upd.Len() == 0 {
		return nil, fmt.Errorf("experiment: no IDT pool to mix")
	}
	origPer := orig.Total() / float64(orig.Len())
	updPer := upd.Total() / float64(upd.Len())
	res := &Fig10Result{
		Protocol: protocol,
		PerBlock: make(map[int][2]int),
	}
	res.VendorGap = updPer / origPer

	var mixed mix.Result
	var err error
	switch protocol {
	case "measure-then-amplify":
		mixed, err = mix.MeasureThenAmplify(w.Rng, orig, upd, orig.Len(), upd.Len(), opt)
	case "amplify-then-measure":
		mixed, err = mix.AmplifyThenMeasure(w.Rng, orig, upd, orig.Len(), upd.Len(), opt)
	default:
		return nil, fmt.Errorf("experiment: unknown protocol %q", protocol)
	}
	if err != nil {
		return nil, err
	}
	res.Imbalance = mixed.Imbalance()

	reads, err := seqsim.Sample(w.Rng, mixed.Mixed, nReads, cfg.Rates)
	if err != nil {
		return nil, err
	}
	updated := make(map[int]bool)
	for _, b := range IDTUpdateBlocks {
		updated[b] = true
	}
	for _, r := range reads {
		if r.Meta.Partition != "alice" || !updated[r.Meta.OriginBlock] {
			continue
		}
		counts := res.PerBlock[r.Meta.OriginBlock]
		if r.Meta.Version > 0 {
			counts[1]++
		} else {
			counts[0]++
		}
		res.PerBlock[r.Meta.OriginBlock] = counts
	}
	return res, nil
}

// PrintFig10 writes the Figure 10 bars.
func PrintFig10(out io.Writer, r *Fig10Result) {
	fmt.Fprintf(out, "Figure 10: mixing outcome via %s (vendor gap %.0fx)\n", r.Protocol, r.VendorGap)
	for _, b := range IDTUpdateBlocks {
		c, ok := r.PerBlock[b]
		if !ok {
			continue
		}
		ratio := 0.0
		if c[1] > 0 {
			ratio = float64(c[0]) / float64(c[1])
		}
		fmt.Fprintf(out, "  paragraph %d: original %6d reads, update %6d reads (ratio %.2f)\n",
			b, c[0], c[1], ratio)
	}
	fmt.Fprintf(out, "  per-molecule imbalance after mixing: %.2fx (paper: well matched despite 50000x gap)\n",
		r.Imbalance)
}
