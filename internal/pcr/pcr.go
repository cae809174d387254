// Package pcr simulates the polymerase chain reaction on a DNA pool.
//
// The simulator is mechanistic rather than curve-fit: each cycle, every
// primer may bind every species with a probability that decays
// exponentially with the edit distance between the primer and the
// species' prefix, scaled by annealing stringency (temperature) and
// reagent saturation. Three consequences of this mechanism reproduce the
// paper's observations without hard-coding them:
//
//   - Perfectly matching species double (nearly) every cycle until the
//     reaction saturates (Section 2.1.4).
//   - A primer that binds a near-matching template with d > 0 produces a
//     product whose prefix is the primer itself: the index is overwritten
//     while the payload is retained. The product then amplifies at full
//     efficiency, which is exactly the mispriming dynamic of Section 8.1.
//   - Touchdown PCR (Section 6.5) raises the annealing temperature for
//     the first cycles, increasing stringency when mispriming would
//     compound the most.
package pcr

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dnastore/internal/binding"
	"dnastore/internal/dna"
	"dnastore/internal/parallel"
	"dnastore/internal/pool"
	"dnastore/internal/recycle"
)

// Primer is one primer pair participating in a reaction. Conc is the
// relative primer concentration; a multiplexed reaction splits the total
// concentration across pairs (Section 6.5), and residual primers left
// over from a previous reaction are modeled as an extra pair with a
// small Conc.
type Primer struct {
	Fwd  dna.Seq
	Rev  dna.Seq
	Conc float64
}

// Params are the reaction parameters.
type Params struct {
	Cycles int // total thermal cycles

	// Efficiency is the per-cycle duplication probability of a perfectly
	// matched, unsaturated template (~0.95 for a healthy reaction).
	Efficiency float64

	// AnnealTemp is the steady annealing temperature in Celsius.
	// TouchdownStart > AnnealTemp enables touchdown: the first
	// TouchdownCycles cycles ramp from TouchdownStart down by 1 degree
	// per cycle (Section 6.5's protocol: 65C down-ramp for 10 cycles,
	// then 55C for the remainder).
	AnnealTemp      float64
	TouchdownStart  float64
	TouchdownCycles int

	// MismatchPenalty is the exponential penalty per unit of edit
	// distance at ReferenceTemp; TempSlope adds penalty per degree above
	// ReferenceTemp. Binding probability for distance d at temperature T:
	//
	//	P = Efficiency * Conc * exp(-(MismatchPenalty + TempSlope*(T-ReferenceTemp)) * d)
	MismatchPenalty float64
	TempSlope       float64
	ReferenceTemp   float64

	// Capacity is the reagent-limited total molecule count: per-cycle
	// growth scales by (1 - total/Capacity), producing the plateau that
	// every real PCR exhibits.
	Capacity float64

	// MaxBindDist bounds the edit distance at which binding is
	// considered at all; beyond it the probability is treated as zero.
	// A binding's distance is a forward plus a reverse edit distance
	// over primers of at most dna.MaxPatternLen bases, so Validate
	// refuses values above MaxBindDistLimit.
	MaxBindDist int

	// Workers fans the per-cycle scoring loop (binding alignments and
	// growth computation) across a worker pool. Growth deltas are
	// emitted in deterministic species order and applied serially, so
	// the amplified pool is byte-identical at any worker count. 0 means
	// 1 (serial); negative means GOMAXPROCS.
	Workers int

	// Provider supplies primer ⇄ template binding alignments. nil means
	// binding.Direct: compile the pairs and align every (species,
	// primer) once per reaction, the historical behavior. A shared
	// binding.Cache amortizes both the alignments and the pattern
	// compilation across reactions over mostly-unchanged pools; since
	// bindings are pure functions of their sequences, the amplified
	// pool is byte-identical with any provider.
	Provider binding.Provider
}

// MaxBindDistLimit is the largest MaxBindDist Validate accepts: a
// forward plus a reverse edit distance, each at most a primer's length.
const MaxBindDistLimit = 2 * dna.MaxPatternLen

// ErrMaxBindDist is wrapped by Validate's error for a MaxBindDist that
// is negative or over MaxBindDistLimit. Run sizes a per-distance table
// from it, so an unbounded value would exhaust memory.
var ErrMaxBindDist = errors.New("pcr: MaxBindDist out of range")

// DefaultParams returns parameters calibrated to the paper's wetlab
// protocol (touchdown 65->55 over 10 cycles plus 18 cycles at 55).
func DefaultParams() Params {
	return Params{
		Cycles:          28,
		Efficiency:      0.95,
		AnnealTemp:      55,
		TouchdownStart:  65,
		TouchdownCycles: 10,
		MismatchPenalty: 0.78,
		TempSlope:       0.08,
		ReferenceTemp:   55,
		Capacity:        0, // must be set relative to the input pool
		MaxBindDist:     5,
	}
}

// Validate checks parameter sanity. Every float must be finite: a NaN
// fails every comparison, so without the check it would slip past the
// range tests and silently stall the reaction.
func (p Params) Validate() error {
	if p.Cycles <= 0 {
		return fmt.Errorf("pcr: cycles %d", p.Cycles)
	}
	names := [...]string{"efficiency", "anneal temperature", "touchdown start",
		"mismatch penalty", "temperature slope", "reference temperature", "capacity"}
	for i, v := range [...]float64{p.Efficiency, p.AnnealTemp, p.TouchdownStart,
		p.MismatchPenalty, p.TempSlope, p.ReferenceTemp, p.Capacity} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pcr: %s %v is not finite", names[i], v)
		}
	}
	if p.Efficiency <= 0 || p.Efficiency > 1 {
		return fmt.Errorf("pcr: efficiency %v outside (0, 1]", p.Efficiency)
	}
	if p.Capacity <= 0 {
		return fmt.Errorf("pcr: capacity must be positive (set it relative to the input pool)")
	}
	if p.MaxBindDist < 0 || p.MaxBindDist > MaxBindDistLimit {
		return fmt.Errorf("%w: %d outside [0, %d] (forward plus reverse distance of %d-base primers)",
			ErrMaxBindDist, p.MaxBindDist, MaxBindDistLimit, dna.MaxPatternLen)
	}
	return nil
}

// annealTemp returns the annealing temperature for 0-based cycle c.
func (p Params) annealTemp(c int) float64 {
	if p.TouchdownStart > p.AnnealTemp && c < p.TouchdownCycles {
		t := p.TouchdownStart - float64(c)
		if t < p.AnnealTemp {
			t = p.AnnealTemp
		}
		return t
	}
	return p.AnnealTemp
}

// penalty returns the per-edit-unit penalty at temperature t.
func (p Params) penalty(t float64) float64 {
	pen := p.MismatchPenalty + p.TempSlope*(t-p.ReferenceTemp)
	if pen < 0 {
		pen = 0
	}
	return pen
}

// Stats summarizes a reaction.
type Stats struct {
	Cycles          int
	InitialTotal    float64
	FinalTotal      float64
	MisprimeSpecies int     // distinct misprimed product species created
	MisprimedMass   float64 // total abundance of misprimed products at the end
}

// Gain returns the reaction's mass amplification: final over initial
// total abundance. A healthy reaction enriches its target well past 1;
// a gain at (or near) 1 means nothing amplified — the observable
// signature of a failed reaction. 0 when the input pool was empty.
func (s Stats) Gain() float64 {
	if s.InitialTotal <= 0 {
		return 0
	}
	return s.FinalTotal / s.InitialTotal
}

// The binding computation itself — states, compiled pairs, the
// alignment — lives in package binding; reactions consult a
// binding.Provider for it. What stays here is the per-reaction dense
// table: species index x primer index slots that remember each
// provider answer so every (species, primer) pair is asked at most
// once per reaction.

// delta is one unit of per-cycle growth, kept pointer-free and 16
// bytes because hundreds of thousands are staged per reaction (every
// growing species, every cycle): species >= 0 boosts an existing
// species directly; otherwise prod is the producing (species, primer)
// table slot of a new misprime product, which the apply phase builds
// from the slot's binding.
type delta struct {
	species int32 // existing species receiving growth, or -1
	prod    int32 // producing table slot (si*np+pi), or -1
	amount  float64
}

// workspace is one reaction's tube-sized scratch: the binding table,
// the product index, the per-chunk delta buffers, the penalty table and
// the product buffer. Run takes one from workspaces and puts it back
// when it ends, so a reaction over an unchanged tube reuses the last
// one's tables instead of allocating them again.
type workspace struct {
	cache   []binding.Binding
	prodIdx []int32
	deltas  [][]delta
	expPen  []float64
	prodSeq dna.Seq
}

var workspaces recycle.List[workspace]

// ErrPrimer is wrapped by Run's errors for a primer sequence it cannot
// align: empty, or longer than dna.MaxPatternLen bases.
var ErrPrimer = errors.New("pcr: invalid primer sequence")

// Run executes the reaction on a copy of the input pool and returns the
// amplified pool. The input pool is not modified.
//
// Each cycle has two phases. The scoring phase is pure: it aligns and
// scores every (species, primer) pair against the frozen cycle-start
// pool and emits growth deltas; with params.Workers > 1 it fans out
// across contiguous species chunks whose delta buffers are concatenated
// in species order, so the emitted sequence is identical to the serial
// one. The apply phase then mutates the pool serially in that order.
func Run(input *pool.Pool, primers []Primer, params Params) (*pool.Pool, Stats, error) {
	if err := params.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if len(primers) == 0 {
		return nil, Stats{}, fmt.Errorf("pcr: no primers")
	}
	maxConc := 0.0
	for i, pr := range primers {
		if len(pr.Fwd) == 0 || len(pr.Rev) == 0 {
			return nil, Stats{}, fmt.Errorf("%w: primer %d has empty sequence", ErrPrimer, i)
		}
		if n := max(len(pr.Fwd), len(pr.Rev)); n > dna.MaxPatternLen {
			return nil, Stats{}, fmt.Errorf("%w: primer %d has %d bases, over %d", ErrPrimer, i, n, dna.MaxPatternLen)
		}
		if !(pr.Conc > 0) || math.IsInf(pr.Conc, 0) {
			return nil, Stats{}, fmt.Errorf("pcr: primer %d concentration %v is not positive and finite", i, pr.Conc)
		}
		if pr.Conc > maxConc {
			maxConc = pr.Conc
		}
	}

	out := input.Clone()
	stats := Stats{Cycles: params.Cycles, InitialTotal: out.Total()}

	// Dense per-reaction binding table: species index x primer index,
	// species-major. Species are appended, never removed, so indexes
	// are stable; the table grows with the pool, gated on the pool's
	// revision (pool.Version is purely a growth signal here — the
	// provider's entries are content-addressed and never invalidated).
	// During the parallel scoring phase each chunk touches only its own
	// species' rows, so writes never race.
	np := len(primers)
	ws := workspaces.Get()
	if ws == nil {
		ws = new(workspace)
	}
	cache := ws.cache[:0]
	// prodIdx memoizes, per (species, primer) slot, 1 + the pool index
	// of the slot's misprime product once the apply phase has created
	// it (0 = no product yet, so freshly zeroed growth is correct):
	// re-deriving the same sequence every cycle dominated the warm
	// profile once bindings were cached.
	prodIdx := ws.prodIdx[:0]
	prov := params.Provider
	if prov == nil {
		prov = binding.Direct{}
	}
	pairs := make([]binding.Pair, np)
	for i, pr := range primers {
		pairs[i] = binding.Pair{Fwd: pr.Fwd, Rev: pr.Rev}
	}
	rx := prov.Begin(pairs, params.MaxBindDist, input)

	// negligible products below this absolute abundance are dropped to
	// bound the species count.
	negligible := params.Capacity * 1e-12
	// maxProb bounds any primer's binding probability; species whose
	// whole-cycle growth falls below negligible are skipped before any
	// alignment work. Floating-point multiplication is monotone, so the
	// bound is exact: a skipped species could never have produced a
	// non-negligible delta.
	maxProb := params.Efficiency * maxConc

	workers := parallel.Resolve(params.Workers)
	nchunks := 1
	if workers > 1 {
		nchunks = 4 * workers
	}
	// Each chunk's buffer is reset by its scorer every cycle, so stale
	// deltas of an earlier reaction are never read.
	chunkDeltas := ws.deltas
	if cap(chunkDeltas) < nchunks {
		chunkDeltas = make([][]delta, nchunks)
	}
	chunkDeltas = chunkDeltas[:nchunks]
	prodSeq := ws.prodSeq // the apply phase's product buffer
	expPen := ws.expPen
	if cap(expPen) < params.MaxBindDist+1 {
		expPen = make([]float64, params.MaxBindDist+1)
	}
	expPen = expPen[:params.MaxBindDist+1]
	defer func() {
		*ws = workspace{cache: cache, prodIdx: prodIdx, deltas: chunkDeltas, expPen: expPen, prodSeq: prodSeq}
		workspaces.Put(ws)
	}()

	// The scoring phase reads the cycle's saturation and species count
	// through these, so its closure is built once per reaction.
	var sat float64
	var n, chunk int
	// scoreChunk emits, in species order, the growth deltas of chunk
	// ci's contiguous species range.
	scoreChunk := func(ci int) error {
		lo := min(ci*chunk, n)
		hi := min(lo+chunk, n)
		deltas := chunkDeltas[ci][:0]
		for si := lo; si < hi; si++ {
			ab := out.Abundance(si)
			if ab <= 0 {
				continue
			}
			if ab*maxProb*sat < negligible {
				continue
			}
			// Room for this species' deltas, by doubling: the first
			// cycle grows each buffer from empty, and append's gentler
			// growth of large slices copied it several times over.
			if cap(deltas)-len(deltas) < np {
				deltas = slices.Grow(deltas, max(np, len(deltas)))
			}
			tmpl := out.PackedSeq(si) // zero-copy arena view
			row := cache[si*np : (si+1)*np]
			for pi := range primers {
				b := &row[pi]
				if b.State == binding.Unknown {
					*b = rx.Bind(pi, si, tmpl)
				}
				if b.State == binding.None {
					continue
				}
				prob := params.Efficiency * primers[pi].Conc * expPen[b.Dist]
				amount := ab * prob * sat
				if amount < negligible {
					continue
				}
				if b.Dist == 0 {
					deltas = append(deltas, delta{species: int32(si), prod: -1, amount: amount})
					continue
				}
				// Misprime: once the slot's product exists its
				// index is memoized and growth goes straight to
				// it; until then the apply phase builds it.
				slot := si*np + pi
				if idx := prodIdx[slot]; idx != 0 {
					deltas = append(deltas, delta{species: idx - 1, prod: -1, amount: amount})
					continue
				}
				deltas = append(deltas, delta{species: -1, prod: int32(slot), amount: amount})
			}
		}
		chunkDeltas[ci] = deltas
		return nil
	}

	for c := 0; c < params.Cycles; c++ {
		sat = 1 - out.Total()/params.Capacity
		if sat <= 0 {
			break
		}
		pen := params.penalty(params.annealTemp(c))
		n = out.Len()
		// Grow the reaction tables with doubling: products append a few
		// species every cycle, and regrowing exactly-sized tables each
		// cycle was measurable zeroing + copy traffic. Zero is the
		// Unknown state for both tables: fresh capacity is zeroed by
		// allocation, and capacity extended in place (it may hold an
		// earlier reaction's slots) is cleared.
		if need := n * np; len(cache) < need {
			if cap(cache) >= need {
				old := len(cache)
				cache, prodIdx = cache[:need], prodIdx[:need]
				clear(cache[old:])
				clear(prodIdx[old:])
			} else {
				nc := make([]binding.Binding, need, 2*need)
				copy(nc, cache)
				cache = nc
				ni := make([]int32, need, 2*need)
				copy(ni, prodIdx)
				prodIdx = ni
			}
		}
		// The mismatch penalty enters only as exp(-pen*d) for the few
		// distances within the budget; tabulating it per cycle replaces
		// a math.Exp per (species, primer) with an indexed load.
		for d := 0; d <= params.MaxBindDist; d++ {
			expPen[d] = math.Exp(-pen * float64(d))
		}
		chunk = max((n+nchunks-1)/nchunks, 1)
		parallel.Run(workers, nchunks, scoreChunk)
		// Apply phase: serial, in species order (chunks are contiguous
		// and ordered), identical to the historical single-loop apply:
		// boosting a memoized product index mutates exactly the species
		// that re-adding its sequence would have found. A misprime
		// product carries the primer as its prefix and the template's
		// remainder past the bound end (index overwritten, payload
		// kept). Rebuilding it here from the slot reads what the scorer
		// read: species are append-only, a species' sequence and meta
		// never change, and the slot's binding is fixed for the
		// reaction.
		for _, deltas := range chunkDeltas {
			for _, d := range deltas {
				if d.species >= 0 {
					out.Boost(int(d.species), d.amount)
					continue
				}
				si, pi := int(d.prod)/np, int(d.prod)%np
				tmpl := out.PackedSeq(si)
				prodSeq = append(prodSeq[:0], primers[pi].Fwd...)
				prodSeq = tmpl.AppendRange(prodSeq, int(cache[d.prod].End), tmpl.Len())
				meta := out.MetaAt(si)
				meta.Misprimed = true
				before := out.Len()
				if idx := out.AddIndex(prodSeq, d.amount, meta); idx >= 0 {
					prodIdx[d.prod] = int32(idx) + 1
				}
				if out.Len() > before {
					stats.MisprimeSpecies++
				}
			}
		}
	}

	stats.FinalTotal = out.Total()
	for i, nOut := 0, out.Len(); i < nOut; i++ {
		if out.MetaAt(i).Misprimed {
			stats.MisprimedMass += out.Abundance(i)
		}
	}
	return out, stats, nil
}
