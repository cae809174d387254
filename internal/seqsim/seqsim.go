// Package seqsim simulates DNA sequencing of a pool.
//
// Reads are sampled from the pool proportionally to species abundance
// and corrupted by the IDS channel — the composition of the sequencing
// output is what every cost number in Section 7 is computed from. The
// package also provides the two latency models of Section 7.4: fixed-run
// next-generation sequencing (Illumina) and streaming Nanopore
// sequencing with early stopping.
package seqsim

import (
	"errors"
	"fmt"
	"math"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/pool"
	"dnastore/internal/recycle"
	"dnastore/internal/rng"
)

// ErrEmptyPool reports sequencing of a pool with no drawable material:
// no species at all, or every species at zero abundance. Recovery
// supervisors treat it like a coverage failure — there is nothing to
// sample, deeper budgets included.
var ErrEmptyPool = errors.New("seqsim: no drawable material in pool")

// Read is one sequencing read. Meta carries the ground-truth provenance
// of the species the read was sampled from; the decoding pipeline never
// consults it, but experiments use it to classify the readout exactly as
// the paper's authors align reads back to known strands.
type Read struct {
	Seq  dna.Seq
	Meta pool.Meta
}

// aliasTable is a Walker/Vose alias table over a pool's positive-
// abundance species: one uniform draw picks a species in O(1) instead
// of the O(log n) binary search over a cumulative table. The table is a
// pure function of the pool's contents when it was built.
type aliasTable struct {
	prob  []float64 // per-slot acceptance threshold in [0, 1]
	alias []int32   // per-slot alternative, as a compacted index
	idx   []int32   // compacted index -> species index
}

// aliasScratch is the construction's working storage.
type aliasScratch struct {
	scaled       []float64
	small, large []int32
}

// streamTables holds the tables of closed Streams and buildScratch the
// construction scratch, both for reuse: a reaction's pool is sampled by
// one Stream and then dropped, so its table is dead storage the next
// reaction's build can fill.
var (
	streamTables recycle.List[aliasTable]
	buildScratch recycle.List[aliasScratch]
)

// buildAlias fills t with the alias table for the pool's current
// contents, reusing t's storage. Zero-abundance records (diluted-away
// or fully consumed species) cannot be drawn, so they are dropped from
// the table. The construction is deterministic, so the sampling stream
// is a pure function of (seed, pool contents).
func buildAlias(t *aliasTable, p *pool.Pool) error {
	n := p.Len()
	if n == 0 {
		return fmt.Errorf("%w: no species", ErrEmptyPool)
	}
	sc := buildScratch.Get()
	if sc == nil {
		sc = new(aliasScratch)
	}
	defer buildScratch.Put(sc)
	if cap(t.idx) < n {
		t.idx = make([]int32, 0, n)
	}
	t.idx = t.idx[:0]
	scaled := resize(sc.scaled, n)[:0]
	total := 0.0
	for i := 0; i < n; i++ {
		a := p.Abundance(i)
		if a <= 0 {
			continue
		}
		total += a
		t.idx = append(t.idx, int32(i))
		scaled = append(scaled, a)
	}
	if total <= 0 {
		return fmt.Errorf("%w: zero total abundance", ErrEmptyPool)
	}
	k := len(t.idx)
	// Every slot is written below: each index starts on one stack and
	// is assigned when it leaves it, or by the residue loops.
	t.prob, t.alias = resize(t.prob, k), resize(t.alias, k)
	// Vose's method: pair each under-full slot with an over-full donor.
	small, large := resize(sc.small, k)[:0], resize(sc.large, k)[:0]
	for i := range scaled {
		scaled[i] *= float64(k) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Numerical residue: whatever remains on either stack is full.
	for _, l := range large {
		t.prob[l], t.alias[l] = 1, l
	}
	for _, s := range small {
		t.prob[s], t.alias[s] = 1, s
	}
	sc.scaled, sc.small, sc.large = scaled, small, large
	return nil
}

// resize returns s with length n, reusing its storage when it has the
// capacity. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// draw picks one species index using a single uniform: the integer part
// selects a slot, the fractional part plays the slot's biased coin.
func (t *aliasTable) draw(r *rng.Source) int32 {
	x := r.Float64() * float64(len(t.prob))
	s := int(x)
	if s >= len(t.prob) {
		s = len(t.prob) - 1
	}
	if x-float64(s) < t.prob[s] {
		return t.idx[s]
	}
	return t.idx[t.alias[s]]
}

// Sampler draws reads under channel rates that were validated once at
// construction, keeping validation out of per-reaction hot paths. A
// Sampler is safe for concurrent use.
type Sampler struct {
	rates channel.Rates
}

// NewSampler validates the rates and returns a Sampler for them.
func NewSampler(rates channel.Rates) (*Sampler, error) {
	if err := rates.Validate(); err != nil {
		return nil, err
	}
	return &Sampler{rates: rates}, nil
}

// Sample draws n reads from the pool, each species chosen with
// probability proportional to its abundance, and corrupts each read
// through the IDS channel. It is n ungated draws off one Stream.
func Sample(r *rng.Source, p *pool.Pool, n int, rates channel.Rates) ([]Read, error) {
	if n < 0 {
		return nil, fmt.Errorf("seqsim: negative read count %d", n)
	}
	sm, err := NewSampler(rates)
	if err != nil {
		return nil, err
	}
	st, err := sm.Stream(r, p)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	reads := make([]Read, n)
	for i := range reads {
		reads[i], _ = st.Next(nil)
	}
	return reads, nil
}

// Stream is an incremental view of one sequencing reaction: reads are
// drawn one at a time from a fixed snapshot of the pool's composition,
// so a streaming decoder can consume them as they come off the
// sequencer and stop — or redirect — the reaction early. Sample is n
// ungated draws off one Stream, so the first n reads of an ungated
// Stream are bit-identical to Sample(r, p, n, rates).
//
// The gate models nanopore adaptive sampling ("read-until"): the
// decision callback sees only the drawn species' identity, and a
// rejected molecule is ejected from the pore before being sequenced —
// it costs a draw but produces no read and consumes no channel
// randomness. The pool must not be mutated while a Stream is open; the
// alias table is a snapshot of the composition at Stream() time. The
// table is the Stream's own, built from recycled storage; Close hands
// it back.
type Stream struct {
	r     *rng.Source
	p     *pool.Pool
	t     *aliasTable
	rates channel.Rates
	tmpl  dna.Seq
	// Sequenced counts reads fully sequenced and returned; Ejected
	// counts molecules the gate rejected. Their sum is the number of
	// pore entries (draws).
	Sequenced int
	Ejected   int
}

// Stream opens an incremental sequencing reaction over the pool. It
// builds the stream's alias table, in a closed stream's storage when
// one is free.
func (sm *Sampler) Stream(r *rng.Source, p *pool.Pool) (*Stream, error) {
	t := streamTables.Get()
	if t == nil {
		t = new(aliasTable)
	}
	if err := buildAlias(t, p); err != nil {
		streamTables.Put(t)
		return nil, err
	}
	return &Stream{r: r, p: p, t: t, rates: sm.rates}, nil
}

// Close ends the stream and hands its alias table back for reuse by
// later streams. The stream must not be used afterwards; closing it
// again is a no-op.
func (s *Stream) Close() {
	streamTables.Put(s.t)
	s.t = nil
}

// Next draws one molecule into the pore. A nil gate sequences every
// molecule. With a gate, the species index of the drawn molecule is
// offered to it first; on false the molecule is ejected and Next
// returns ok=false without producing a read. The species index is a
// stable key into the streamed pool (p.AppendSeq / p.MetaAt), so gates
// can memoize their per-species decision.
func (s *Stream) Next(gate func(species int) bool) (Read, bool) {
	return s.AppendNext(nil, gate)
}

// AppendNext is Next with the read's bases appended to dst, so a
// caller that recycles its read buffers draws without allocating. It
// consumes the rng exactly as Next does.
func (s *Stream) AppendNext(dst dna.Seq, gate func(species int) bool) (Read, bool) {
	si := int(s.t.draw(s.r))
	if gate != nil && !gate(si) {
		s.Ejected++
		return Read{}, false
	}
	s.tmpl = s.p.AppendSeq(s.tmpl[:0], si)
	s.Sequenced++
	return Read{
		Seq:  channel.AppendCorrupt(dst, s.r, s.tmpl, s.rates),
		Meta: s.p.MetaAt(si),
	}, true
}

// --- Sequencing latency and cost models (Section 7.4) -------------------

// NGSConfig models a fixed-run next-generation sequencer: a run takes a
// fixed time and produces a fixed number of reads, and output is only
// available when the run completes.
type NGSConfig struct {
	ReadsPerRun int     // reads produced by one run
	HoursPerRun float64 // wall-clock duration of one run
	CostPerRun  float64 // arbitrary cost units per run
}

// MiSeqLike returns an NGS configuration modeled on the paper's Illumina
// MiSeq example ("one run of Illumina MiSeq can only produce around 1GB
// of user data"): ~6.6M 150-base reads per 24h run.
func MiSeqLike() NGSConfig {
	return NGSConfig{ReadsPerRun: 6_600_000, HoursPerRun: 24, CostPerRun: 1000}
}

// RunsNeeded returns the number of runs to obtain totalReads reads.
func (c NGSConfig) RunsNeeded(totalReads int) int {
	if totalReads <= 0 {
		return 0
	}
	return (totalReads + c.ReadsPerRun - 1) / c.ReadsPerRun
}

// Latency returns the wall-clock hours to obtain totalReads reads.
// NGS latency is quantized by runs: even one read costs a full run.
func (c NGSConfig) Latency(totalReads int) float64 {
	return float64(c.RunsNeeded(totalReads)) * c.HoursPerRun
}

// Cost returns the sequencing cost for totalReads reads.
func (c NGSConfig) Cost(totalReads int) float64 {
	return float64(c.RunsNeeded(totalReads)) * c.CostPerRun
}

// NanoporeConfig models a streaming sequencer whose output is produced
// and analyzed continuously, so a retrieval can stop as soon as decoding
// succeeds (Section 7.4: "runtime of a single sequencing run is always
// output-size-dependent").
type NanoporeConfig struct {
	ReadsPerHour float64
	CostPerRead  float64
}

// MinIONLike returns a configuration modeled on an Oxford Nanopore
// MinION flow cell.
func MinIONLike() NanoporeConfig {
	return NanoporeConfig{ReadsPerHour: 400_000, CostPerRead: 0.0002}
}

// Latency returns hours to produce totalReads reads; streaming output
// scales continuously with the read count.
func (c NanoporeConfig) Latency(totalReads int) float64 {
	if totalReads <= 0 {
		return 0
	}
	return float64(totalReads) / c.ReadsPerHour
}

// Cost returns the cost of totalReads reads.
func (c NanoporeConfig) Cost(totalReads int) float64 {
	return float64(totalReads) * c.CostPerRead
}

// CoverageReadsNeeded returns how many total reads must be sequenced so
// that the target species (a fraction usefulFrac of the pool) is covered
// at the requested depth. This is the arithmetic behind the paper's
// 293x / 1.08x waste factors (Sections 7.1 and 7.3): reading x amount of
// a block that makes up fraction f of the pool requires x/f total reads.
func CoverageReadsNeeded(targetStrands int, depth float64, usefulFrac float64) (int, error) {
	if usefulFrac <= 0 || usefulFrac > 1 {
		return 0, fmt.Errorf("seqsim: useful fraction %v outside (0, 1]", usefulFrac)
	}
	if targetStrands <= 0 || depth <= 0 {
		return 0, fmt.Errorf("seqsim: non-positive target/depth")
	}
	return int(math.Ceil(float64(targetStrands) * depth / usefulFrac)), nil
}
