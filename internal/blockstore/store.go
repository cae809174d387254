// Package blockstore implements the paper's block-storage architecture
// on top of the simulated wet lab: partitions defined by primer pairs,
// each internally organized by a PCR-navigable index tree into fixed-size
// blocks that can be independently written, read, updated and range-read
// (Sections 3-5).
//
// A Store models one DNA tube plus the digital front-end metadata the
// paper assumes (tree seeds, randomizer seeds, update version counters).
// Every read operation performs the full wet protocol: PCR with an
// (elongated) primer on the tube, sequencing at a configured depth, and
// the software decoding pipeline.
//
// Stores and partitions are safe for concurrent use, and with
// Config.Workers > 1 a single range or batched read fans its
// independent PCR reactions and block decodes out across a worker pool.
// Writes go through the same engine: a staged Batch plans version and
// log slots digitally, encodes and synthesizes every unit across the
// worker pool, and commits under one short lock. Every reaction and
// every synthesized unit draws its noise from its own rng.Source forked
// in deterministic order from the partition's master stream, so results
// are byte-identical regardless of the worker count.
package blockstore

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dnastore/internal/binding"
	"dnastore/internal/channel"
	"dnastore/internal/decay"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/fault"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/parallel"
	"dnastore/internal/pcr"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/seqsim"
	"dnastore/internal/streamdecode"
)

// Errors returned by store operations. All returned errors wrap one of
// these sentinels, so callers can dispatch with errors.Is — including
// through a BatchError, whose per-op errors unwrap to them.
var (
	ErrBlockRange    = errors.New("blockstore: block number out of range")
	ErrBlockSize     = errors.New("blockstore: block data too large")
	ErrBlockNotFound = errors.New("blockstore: block not written")
	ErrBlockWritten  = errors.New("blockstore: block already written (DNA is append-only; use UpdateBlock)")
	ErrOverflowFull  = errors.New("blockstore: overflow log space exhausted")
	ErrBatchConflict = errors.New("blockstore: batch conflicts with a concurrent mutation")
	ErrNoPrimers     = errors.New("blockstore: primer budget exhausted")
	ErrDepthScale    = errors.New("blockstore: invalid sequencing depth scale")
	ErrReadRequest   = errors.New("blockstore: invalid read request")
)

// Typed health errors, re-exported from the decode pipeline so callers
// can classify read failures — transient sequencing shortfall versus
// permanently corrupted strands — without importing internal/decode.
// Both wrap decode.ErrDecode.
var (
	ErrInsufficientCoverage = decode.ErrInsufficientCoverage
	ErrRSMarginExceeded     = decode.ErrRSMarginExceeded
)

// Config parameterizes a Store.
type Config struct {
	Geometry  layout.Geometry
	TreeDepth int    // blocks per partition = 4^TreeDepth
	Seed      uint64 // master seed for trees, randomizers, noise

	// Variant selects the index scheme (paper: Sparse). The Dense
	// variant exists for the prior-work baseline (experiment.UpdateCost)
	// and ablations.
	Variant indextree.Variant

	// PadBytes is the per-unit random padding (paper: 8, making a
	// 256-byte block inside the 264-byte unit).
	PadBytes int

	Synthesis pool.SynthesisParams
	// PCR parameterizes every reaction. With a nil Provider, New
	// installs a store-level binding.Cache shared by every reaction of
	// the store: primer ⇄ species alignments are pure functions of
	// their sequences, so a range read re-aligns the tube's stable
	// species once instead of once per cover, and Config().PCR carries
	// the cache to direct pcr.Run call sites too. A Provider already
	// set is kept (a cache shared across stores, or binding.Direct to
	// align every pair afresh); reads are byte-identical either way.
	PCR    pcr.Params
	Rates  channel.Rates
	Decode decode.Config

	// CoverageDepth is the target sequencing depth per molecule.
	CoverageDepth float64
	// WasteFactor over-provisions reads for the expected fraction of
	// off-target output (misprimes and carryover).
	WasteFactor float64
	// CapacityFactor sets each reaction's reagent capacity as a multiple
	// of the input pool size; it controls how far a PCR can enrich the
	// target over the background.
	CapacityFactor float64
	// CarryoverConc is the relative concentration of leftover main
	// primers participating in elongated-primer reactions.
	CarryoverConc float64

	// Workers sets the engine parallelism: how many PCR → sequence →
	// decode reactions of one range or batched read, how many per-block
	// decodes inside the pipeline, and how many unit encode+synthesis
	// preparations of one batch write run concurrently. 0 means 1
	// (serial); negative means GOMAXPROCS. Results are byte-identical
	// for every setting.
	Workers int

	// Decay selects the tube's physical-degradation model. nil (the
	// default) keeps the tube outside time: Advance is an exact no-op,
	// no wear is charged on accesses, and every output stays
	// byte-identical to a decay-free store. With a profile installed,
	// Store.Advance ages the tube and every PCR access charges the
	// profile's mechanical wear.
	Decay *decay.Profile

	// Faults injects operational failures at the wet-lab stage
	// boundaries: PCR reaction failure and partial yield, sequencing-run
	// aborts, synthesis-order dropout, and cross-tube contamination.
	// Every decision draws from the operation's own deterministically
	// forked rng source, so injected campaigns reproduce byte-for-byte
	// at any worker count. nil (the default) injects nothing and draws
	// nothing: every output is byte-identical to a store built before
	// fault hooks existed.
	Faults *fault.Injector

	// Retry is the supervised recovery policy consulted by ReadSupervised
	// reads and by batch prepare's synthesis QC. nil selects
	// fault.DefaultRetryPolicy for supervised reads but disables
	// write-side QC retries — an unsupervised store ships whatever the
	// vendor delivered, dropped orders included.
	Retry *fault.RetryPolicy
}

// BindingStats is a snapshot of the store binding cache's counters.
type BindingStats = binding.Stats

// SetTreeDepth sets the partition tree depth and adjusts the strand
// geometry to fit: the sparse index needs 2 bases per level, and the
// strand is trimmed so the payload stays a whole number of bytes.
// dnastore.New and the scaled wetlab builds share this one adjustment;
// New's Geometry.Validate still rejects infeasible depths.
func (c *Config) SetTreeDepth(depth int) {
	c.TreeDepth = depth
	c.Geometry.IndexLen = 2 * depth
	if rem := c.Geometry.PayloadBases() % 4; rem > 0 && c.Geometry.PayloadBases() > rem {
		c.Geometry.StrandLen -= rem
	}
}

// DefaultConfig returns the paper's wetlab configuration.
func DefaultConfig() Config {
	return Config{
		Geometry:       layout.PaperGeometry(),
		TreeDepth:      5,
		Seed:           1,
		Variant:        indextree.Sparse,
		PadBytes:       8,
		Synthesis:      pool.DefaultTwist(),
		PCR:            pcr.DefaultParams(),
		Rates:          channel.Illumina(),
		Decode:         decode.DefaultConfig(),
		CoverageDepth:  10,
		WasteFactor:    2.5,
		CapacityFactor: 6,
		CarryoverConc:  0.02,
	}
}

// Costs accumulates the physical-cost counters that Section 7 compares.
type Costs struct {
	StrandsSynthesized          int
	PrimerPairsUsed             int
	ElongatedPrimersSynthesized int
	ReadsSequenced              int
	PCRReactions                int
	// ReadsEjected counts molecules the streaming decode path's
	// adaptive-sampling gate ejected from the pore unsequenced: they
	// consumed a draw from the reaction but produced no read and are
	// not in ReadsSequenced.
	ReadsEjected int
}

// Sub returns the field-wise difference c - o: the cost of the work
// done between two Costs snapshots.
func (c Costs) Sub(o Costs) Costs {
	return Costs{
		StrandsSynthesized:          c.StrandsSynthesized - o.StrandsSynthesized,
		PrimerPairsUsed:             c.PrimerPairsUsed - o.PrimerPairsUsed,
		ElongatedPrimersSynthesized: c.ElongatedPrimersSynthesized - o.ElongatedPrimersSynthesized,
		ReadsSequenced:              c.ReadsSequenced - o.ReadsSequenced,
		PCRReactions:                c.PCRReactions - o.PCRReactions,
		ReadsEjected:                c.ReadsEjected - o.ReadsEjected,
	}
}

// Store is one DNA tube with its partitions and digital metadata.
type Store struct {
	cfg     Config
	workers int
	sampler *seqsim.Sampler // rates validated once at construction
	binding *binding.Cache  // shared cross-reaction cache, nil when disabled

	// mu guards the digital front-end state: partitions, the primer
	// budget, and the store-level seed stream.
	mu         sync.Mutex
	partitions map[string]*Partition
	primers    []dna.Seq // available main primers, consumed in pairs
	nextPair   int
	src        *rng.Source

	// tubeMu guards the physical tube. Reads (PCR snapshots the pool)
	// take the read side so concurrent reactions proceed in parallel;
	// synthesis mixes take the write side.
	tubeMu sync.RWMutex
	tube   *pool.Pool

	costMu sync.Mutex
	costs  Costs

	// streamMu guards the streaming engines' merged per-stage stats.
	streamMu    sync.Mutex
	streamStats streamdecode.Stats

	// screenOnce lazily compiles the primer-mismatch screen used by
	// contamination quarantine: one pattern per library primer, shared
	// by every screened reaction.
	screenOnce sync.Once
	screenPats []*dna.Pattern

	// decayMu guards the aging clock and accumulated decay statistics.
	// The decay rng stream is independent of the front-end seed stream
	// (src), so installing a profile or advancing the clock never
	// perturbs partition seeds or reaction noise — and an aged tube is
	// reproducible from (Seed, horizon) alone, whatever was read in
	// between. Lock order: decayMu → tubeMu.
	decayMu    sync.Mutex
	decaySrc   *rng.Source
	ageDays    float64
	decayStats decay.Stats
}

// decaySeedSalt separates the decay channel's rng stream from the
// store's front-end stream derived from the same configured seed.
const decaySeedSalt = 0x6465636179 // "decay"

// New creates a store. primers supplies the mutually compatible main
// primer library (two are consumed per partition); it must contain at
// least two primers.
func New(cfg Config, primers []dna.Seq) (*Store, error) {
	// Check the geometry and the partitions' decode tolerances here
	// rather than at the first partition.
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Decode.Validate(); err != nil {
		return nil, err
	}
	if cfg.TreeDepth < 1 || cfg.TreeDepth > indextree.MaxDepth {
		return nil, fmt.Errorf("blockstore: tree depth %d", cfg.TreeDepth)
	}
	wantIndex := 2 * cfg.TreeDepth
	if cfg.Variant == indextree.Dense {
		wantIndex = cfg.TreeDepth
	}
	if cfg.Geometry.IndexLen != wantIndex {
		return nil, fmt.Errorf("blockstore: geometry index length %d incompatible with depth %d (%v needs %d)",
			cfg.Geometry.IndexLen, cfg.TreeDepth, cfg.Variant, wantIndex)
	}
	if cfg.PadBytes < 0 {
		return nil, fmt.Errorf("blockstore: negative pad")
	}
	if len(primers) < 2 {
		return nil, fmt.Errorf("blockstore: need at least 2 primers, have %d", len(primers))
	}
	for i, p := range primers {
		if len(p) != cfg.Geometry.PrimerLen {
			return nil, fmt.Errorf("blockstore: primer %d has length %d, want %d",
				i, len(p), cfg.Geometry.PrimerLen)
		}
	}
	if cfg.CoverageDepth <= 0 || cfg.WasteFactor < 1 || cfg.CapacityFactor <= 1 {
		return nil, fmt.Errorf("blockstore: invalid read/capacity parameters")
	}
	if cfg.Retry != nil {
		if err := cfg.Retry.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Decay != nil {
		if err := cfg.Decay.Validate(); err != nil {
			return nil, err
		}
		// Privatize the profile so later caller mutations cannot skew an
		// already-running store.
		prof := *cfg.Decay
		cfg.Decay = &prof
	}
	sampler, err := seqsim.NewSampler(cfg.Rates)
	if err != nil {
		return nil, err
	}
	cp := make([]dna.Seq, len(primers))
	for i, p := range primers {
		cp[i] = p.Clone()
	}
	var bcache *binding.Cache
	switch provided := cfg.PCR.Provider; {
	case provided == nil:
		bcache = binding.NewCache(0)
		// Install the cache as the reaction provider so every pcr.Run
		// parameterized from this config — the store's own reactions
		// and the experiments' direct calls alike — shares it.
		cfg.PCR.Provider = bcache
	default:
		// The caller threaded its own provider (e.g. one cache shared
		// across several stores over the same corpus, or
		// binding.Direct to align every pair afresh); keep it. When it
		// is a binding.Cache, adopt it for stats and the decode
		// pipelines' pattern memo.
		bcache, _ = provided.(*binding.Cache)
	}
	return &Store{
		cfg:        cfg,
		workers:    parallel.Resolve(cfg.Workers),
		sampler:    sampler,
		binding:    bcache,
		tube:       pool.New(),
		partitions: make(map[string]*Partition),
		primers:    cp,
		src:        rng.New(cfg.Seed),
		decaySrc:   rng.New(cfg.Seed ^ decaySeedSalt),
	}, nil
}

// BindingStats returns a snapshot of the binding cache's counters; ok
// is false when the caller supplied a PCR provider that is not a
// *binding.Cache.
func (s *Store) BindingStats() (st BindingStats, ok bool) {
	if s.binding == nil {
		return BindingStats{}, false
	}
	return s.binding.Stats(), true
}

// Costs returns a snapshot of the accumulated physical-cost counters.
func (s *Store) Costs() Costs {
	s.costMu.Lock()
	defer s.costMu.Unlock()
	return s.costs
}

// addCosts applies a mutation to the cost counters.
func (s *Store) addCosts(f func(*Costs)) {
	s.costMu.Lock()
	f(&s.costs)
	s.costMu.Unlock()
}

// StreamStats returns the merged per-stage accounting of every
// streaming decode engine the store has run: stage A filter/sign time,
// stage B assignment time, finalize compute and lane decodes, and the
// kept/residue read split.
func (s *Store) StreamStats() streamdecode.Stats {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return s.streamStats
}

// addStreamStats folds one reaction engine's stats into the store's
// streaming totals.
func (s *Store) addStreamStats(st streamdecode.Stats) {
	s.streamMu.Lock()
	s.streamStats.Accumulate(st)
	s.streamMu.Unlock()
}

// Tube exposes the underlying pool for experiments that inspect or
// manipulate the physical sample directly (e.g. the mixing protocols).
// The returned pool is not synchronized; do not mutate it while store
// operations run concurrently.
func (s *Store) Tube() *pool.Pool { return s.tube }

// TubeDigest hashes the tube's full physical state — species order,
// sequences, exact abundance bits, provenance — the byte-identity
// oracle behind the engines' determinism contract: two stores driven by
// the same operation sequence must digest identically at any worker
// count. Like Tube, it must not race with concurrent mutations.
func (s *Store) TubeDigest() [32]byte { return s.tube.Digest() }

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// Partition returns a previously created partition by name.
func (s *Store) Partition(name string) (*Partition, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.partitions[name]
	return p, ok
}

// CreatePartition allocates the next primer pair and creates an empty
// partition with its own index tree and randomizer seeds (Section 4.4:
// different partitions use different seeds).
func (s *Store) CreatePartition(name string) (*Partition, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.partitions[name]; dup {
		return nil, fmt.Errorf("blockstore: partition %q exists", name)
	}
	if 2*s.nextPair+1 >= len(s.primers) {
		return nil, ErrNoPrimers
	}
	fwd := s.primers[2*s.nextPair]
	rev := s.primers[2*s.nextPair+1]
	s.nextPair++
	s.addCosts(func(c *Costs) { c.PrimerPairsUsed++ })

	treeSeed := s.src.Uint64()
	randSeed := s.src.Uint64()
	tree, err := indextree.NewVariant(s.cfg.TreeDepth, treeSeed, s.cfg.Variant)
	if err != nil {
		return nil, err
	}
	unit, err := layout.NewUnitCodec(s.cfg.Geometry, s.cfg.PadBytes, randSeed)
	if err != nil {
		return nil, err
	}
	p := &Partition{
		store:   s,
		name:    name,
		fwd:     fwd,
		rev:     rev,
		tree:    tree,
		unit:    unit,
		workers: s.workers,
		blocks:  make(map[int]blockRow),
		noise:   s.src.Fork(),
	}
	dcfg := s.cfg.Decode
	dcfg.Workers = s.cfg.Workers
	if s.binding != nil {
		// Share the cache's pattern memo with the pipeline's primer
		// compilation (a typed-nil cache must not reach the interface).
		dcfg.Patterns = s.binding
	}
	pipeline, err := decode.New(dcfg, tree, fwd, rev, unit)
	if err != nil {
		return nil, err
	}
	p.pipeline = pipeline
	// Overflow log blocks are allocated from the top of the address
	// space, growing downward toward the data (Figure 7's two-stacks
	// organization).
	p.nextOverflow = tree.Leaves() - 1
	s.partitions[name] = p
	return p, nil
}

// Advance moves the tube's monotonic clock forward by days, applying
// the configured decay profile: strand-loss attenuation sampled per
// species, mutation and indel accrual materialized as new
// low-abundance species. With no profile configured (or a disabled
// one), Advance(d) — and in particular Advance(0) — is an exact
// no-op: no randomness is drawn and the tube digest is unchanged.
//
// Aging draws from a decay rng stream forked deterministically from
// the store seed and independent of every other stream, so the same
// (seed, horizon) always produces the same aged tube, byte for byte,
// at any worker count and regardless of interleaved reads.
func (s *Store) Advance(days float64) (decay.Stats, error) {
	if days < 0 || math.IsNaN(days) || math.IsInf(days, 0) {
		return decay.Stats{}, fmt.Errorf("blockstore: cannot advance %g days", days)
	}
	s.decayMu.Lock()
	defer s.decayMu.Unlock()
	if days == 0 || !s.cfg.Decay.Enabled() {
		s.ageDays += days
		return decay.Stats{}, nil
	}
	// Long horizons age in bounded substeps (see advanceMutationQuantum)
	// so the severity of aging depends only on the horizon, not on how
	// the caller slices it across Advance calls.
	step := days
	if mu := s.cfg.Decay.MutationRate(); mu > 0 {
		if q := advanceMutationQuantum / mu; q < step {
			step = q
		}
	}
	var st decay.Stats
	s.tubeMu.Lock()
	for left := days; left > 1e-12; left -= step {
		d := step
		if left < step {
			d = left
		}
		st.Merge(decay.Age(s.decaySrc, s.tube, d, *s.cfg.Decay))
	}
	s.tubeMu.Unlock()
	s.ageDays += days
	s.decayStats.Merge(st)
	return st, nil
}

// advanceMutationQuantum caps the per-base mutation hazard one
// decay.Age call may apply: Advance splits horizons longer than
// quantum/MutationRate into substeps. One Age call materializes at
// most Profile.MutantSpecies mutant species per parent, so a single
// huge step would concentrate heavily-edited mass into a few species
// while the same horizon taken in small steps diffuses it — the
// discretization, not the physics, would decide whether consensus
// survives. At 4.5e-3 per base (≈50% of a 150-base strand accruing
// some mutation per substep) the artifact is negligible: ~5-day
// substeps under the Accelerated profile, ~250-day under RoomTemp.
// Mutation-free profiles age in one step — exponential thinning
// composes exactly at any split.
const advanceMutationQuantum = 4.5e-3

// AgeDays returns the tube's age: the sum of every Advance horizon.
func (s *Store) AgeDays() float64 {
	s.decayMu.Lock()
	defer s.decayMu.Unlock()
	return s.ageDays
}

// DecayStats returns the accumulated decay and wear statistics across
// every Advance and worn access of the store's lifetime.
func (s *Store) DecayStats() decay.Stats {
	s.decayMu.Lock()
	defer s.decayMu.Unlock()
	return s.decayStats
}

// wear charges the mechanical damage of the given number of tube
// accesses (PCR reactions, including overflow-chain hops). Callers
// invoke it in the serial front-end phase of an access — before the
// wet work fans out — so every reaction of the access sees the worn
// tube and results stay byte-identical at any worker count. With
// decay disabled it returns immediately without touching any lock.
func (s *Store) wear(accesses int) {
	if accesses <= 0 || !s.cfg.Decay.Enabled() || s.cfg.Decay.Mechanical <= 0 {
		return
	}
	s.decayMu.Lock()
	s.tubeMu.Lock()
	st := decay.Touch(s.tube, accesses, *s.cfg.Decay)
	s.tubeMu.Unlock()
	s.decayStats.Merge(st)
	s.decayMu.Unlock()
}

// mixIntoTube adds a synthesized pool to the tube.
func (s *Store) mixIntoTube(p *pool.Pool, factor float64) {
	s.tubeMu.Lock()
	s.tube.MixInto(p, factor)
	s.tubeMu.Unlock()
}

// resynthFloorCopies is the smallest per-species copy number repair
// material is normalized down to: below it a repaired unit would be
// diluted into sequencing invisibility and the repair wasted.
const resynthFloorCopies = 50

// resynthScale returns the dilution factor applied to re-synthesized
// repair material before it rejoins the tube. Fresh synthesis lands at
// the nominal copy number, but the tube being repaired may have
// decayed far below it, and repair strands injected at full strength
// would dominate every downstream reaction: their misprimed products
// contaminate other blocks' reads in proportion to template abundance,
// so each repair would degrade the rest of the tube and successive
// scrub passes would compound the skew until unrepaired blocks become
// unreadable. Real repair protocols quantify and normalize molarity
// when returning material to a pool; this models that normalization —
// repair material is scaled to the tube's mean surviving-species
// abundance, floored at resynthFloorCopies, and never concentrated
// above the synthesis draw itself.
func (s *Store) resynthScale(repairs *pool.Pool) float64 {
	if repairs.Len() == 0 {
		return 1
	}
	synthMean := repairs.Total() / float64(repairs.Len())
	if synthMean <= 0 {
		return 1
	}
	s.tubeMu.Lock()
	total, alive := 0.0, 0
	for i := 0; i < s.tube.Len(); i++ {
		if a := s.tube.Abundance(i); a > 0 {
			total += a
			alive++
		}
	}
	s.tubeMu.Unlock()
	if alive == 0 {
		return 1
	}
	target := total / float64(alive)
	if target < resynthFloorCopies {
		target = resynthFloorCopies
	}
	if f := target / synthMean; f < 1 {
		return f
	}
	return 1
}

// ReadBudget returns the sequencing-read budget a batch retrieval
// provisions for the given unit count — the ceiling a streaming read
// stops under when its coverage floor is met earlier.
func (s *Store) ReadBudget(units int) int {
	return int(math.Ceil(float64(units*layout.UnitMolecules) * s.cfg.CoverageDepth * s.cfg.WasteFactor))
}

// contaminantPartition labels species leaked into a reaction by
// injected cross-tube contamination, so quarantine reports and tests
// can identify foreign material by provenance.
const contaminantPartition = "<contaminant>"

// screenReport is what the contamination screen found in one
// reaction's input aliquot.
type screenReport struct {
	quarantined int     // foreign species mass-zeroed
	foreignFrac float64 // fraction of the aliquot's mass they held
}

// runPCR executes a reaction against the tube and counts it. The tube is
// held read-locked for the duration: pcr.Run works on its own copy, so
// concurrent reactions share the lock and only synthesis mixes exclude
// each other. workers is the reaction's internal scoring fan-out (see
// fanWorkers).
//
// r is the reaction's private noise source; with a fault injector
// configured it decides this reaction's fate — contamination of the
// input aliquot, outright failure (the output is the unenriched
// input), or partial yield (a truncated cycle count). screen runs the
// primer-mismatch quarantine over the aliquot before the reaction, so
// detected foreign material neither consumes reagent capacity nor
// sequencing reads. A nil injector or nil r draws nothing and runs the
// reaction exactly as before.
//
// Reagent capacity is provisioned from the tube's expected material,
// not the aliquot's actual content: leaked contaminant competes for
// the same plateau, which is exactly why an unscreened contaminated
// reaction under-amplifies its target.
func (s *Store) runPCR(r *rng.Source, primers []pcr.Primer, workers int, screen bool) (*pool.Pool, pcr.Stats, screenReport, error) {
	s.addCosts(func(c *Costs) { c.PCRReactions++ })
	s.tubeMu.RLock()
	defer s.tubeMu.RUnlock()
	params := s.cfg.PCR
	params.Capacity = s.cfg.CapacityFactor * s.tube.Total()
	params.Workers = workers
	var rep screenReport
	inj := s.cfg.Faults
	if inj == nil || r == nil {
		out, st, err := pcr.Run(s.tube, primers, params)
		return out, st, rep, err
	}
	input := s.tube
	if frac := inj.ContaminationFrac(r); frac > 0 && input.Total() > 0 {
		// Foreign species leak into the reaction's aliquot, not the
		// tube: the contaminant carries no library primer, so it never
		// amplifies — but it consumes reagent capacity and sequencing
		// reads in proportion to its mass.
		contaminated := input.Clone()
		contaminated.Add(randomStrand(r, s.cfg.Geometry.StrandLen),
			frac*input.Total(), pool.Meta{Partition: contaminantPartition, Block: -1})
		if screen {
			// Only a contaminated aliquot can hold foreign species, so
			// the (clean) tube itself is never cloned just to screen it.
			rep.quarantined, rep.foreignFrac = s.quarantine(contaminated)
		}
		input = contaminated
	}
	outcome := inj.PCR(r)
	if outcome.Failed {
		// The reaction produced nothing: its output is the unenriched
		// input aliquot, gain exactly 1.
		out := input.Clone()
		t := input.Total()
		return out, pcr.Stats{InitialTotal: t, FinalTotal: t}, rep, nil
	}
	if outcome.CycleFrac < 1 {
		c := int(float64(params.Cycles)*outcome.CycleFrac + 0.5)
		if c < 1 {
			c = 1
		}
		params.Cycles = c
	}
	out, st, err := pcr.Run(input, primers, params)
	return out, st, rep, err
}

// randomStrand draws a uniform random sequence — injected contaminant
// material that matches no library primer.
func randomStrand(r *rng.Source, n int) dna.Seq {
	seq := make(dna.Seq, n)
	for i := range seq {
		seq[i] = dna.Base(r.Intn(4))
	}
	return seq
}

// faultBudget applies an injected sequencing-run abort to a read
// budget: an aborted run delivers only a prefix of its budgeted reads
// (the sampler draws sequentially, so truncation is exact). With no
// injector or no abort the budget passes through untouched and r is
// never drawn from.
func (s *Store) faultBudget(r *rng.Source, budget int) int {
	if s.cfg.Faults == nil || r == nil {
		return budget
	}
	frac := s.cfg.Faults.SeqDeliveredFrac(r)
	if frac >= 1 {
		return budget
	}
	n := int(float64(budget) * frac)
	if n < 1 {
		n = 1
	}
	return n
}

// quarantine runs the primer-mismatch screen over a reaction's input
// aliquot: every species whose head aligns with none of the store's
// library forward primers (within the decoder's primer tolerance) is
// flagged as foreign and mass-zeroed before the reaction runs, so it
// neither competes for reagent capacity nor consumes sequencing reads.
// All legitimate material — data strands, misprimed products, carryover
// — begins with some library primer; only leaked cross-tube
// contaminant fails the screen. Returns the species quarantined and
// the fraction of the aliquot's mass they held.
func (s *Store) quarantine(amplified *pool.Pool) (zeroed int, foreignFrac float64) {
	s.screenOnce.Do(func() {
		s.screenPats = make([]*dna.Pattern, len(s.primers))
		for i, p := range s.primers {
			s.screenPats[i] = dna.CompilePattern(p)
		}
	})
	tol := s.cfg.Decode.MaxPrimerDist
	total := amplified.Total()
	var buf dna.Seq
	var foreign float64
	for i := 0; i < amplified.Len(); i++ {
		a := amplified.Abundance(i)
		if a <= 0 {
			continue
		}
		buf = amplified.AppendSeq(buf[:0], i)
		head := buf
		if max := s.cfg.Geometry.PrimerLen + tol; len(head) > max {
			head = head[:max]
		}
		matched := false
		for _, pat := range s.screenPats {
			if _, _, ok := pat.PrefixAlignmentAtMost(head, tol); ok {
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		amplified.SetAbundance(i, 0)
		zeroed++
		foreign += a
	}
	if total > 0 {
		foreignFrac = foreign / total
	}
	return zeroed, foreignFrac
}

// FaultStats snapshots the injector's fired-fault counters; zero when
// no injector is configured.
func (s *Store) FaultStats() fault.Stats { return s.cfg.Faults.Stats() }

// sequence draws n ungated reads off one stream over an amplified
// pool, counts them, and returns their sequences. The store's sampler
// was validated at construction, so no per-reaction rate checks run
// here.
func (s *Store) sequence(r *rng.Source, amplified *pool.Pool, n int) ([]dna.Seq, error) {
	s.addCosts(func(c *Costs) { c.ReadsSequenced += n })
	st, err := s.sampler.Stream(r, amplified)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	seqs := make([]dna.Seq, n)
	for i := range seqs {
		rd, _ := st.Next(nil)
		seqs[i] = rd.Seq
	}
	return seqs, nil
}
