// Package dnastore is a DNA data-storage library with block semantics,
// efficient random block access via elongated PCR primers, sequential
// range access, and versioned in-place updates — a full reimplementation
// of "Efficiently Enabling Block Semantics and Data Updates in DNA
// Storage" (Sharma et al., MICRO 2023) on top of a mechanistic wet-lab
// simulator.
//
// A System models one DNA tube plus the digital front-end metadata
// (primer library, index-tree seeds, version counters). Partitions are
// created per primer pair and expose a block-device-like API; every read
// performs the full simulated wet protocol: PCR (with an elongated
// primer narrowing the reaction to the requested blocks), sequencing
// until every requested block meets its per-slot coverage floor (a
// depth-scaled read, a scrub repair read and, under fault injection, a
// reaction whose PCR never amplified sequence their full read budget
// instead), clustering, trace reconstruction, Reed-Solomon decoding,
// and update-patch application.
//
// Quick start:
//
//	sys, _ := dnastore.New(dnastore.Options{Seed: 1})
//	p, _ := sys.CreatePartition("docs")
//	p.WriteBlock(0, []byte("hello, molecular world"))
//	p.UpdateBlock(0, dnastore.Patch{DeleteStart: 0, DeleteCount: 5, Insert: []byte("howdy")})
//	data, _ := p.ReadBlock(0) // -> "howdy, molecular world"
//
// Bulk mutations go through a staged batch, which plans version slots
// for all operations at once, fans the unit encoding and synthesis
// across Options.Workers, and commits atomically:
//
//	err := p.Batch().
//		Write(1, doc1).
//		Write(2, doc2).
//		Update(1, patch).
//		Apply()
package dnastore

import (
	"fmt"

	"dnastore/internal/blockstore"
	"dnastore/internal/decay"
	"dnastore/internal/fault"
	"dnastore/internal/primer"
	"dnastore/internal/rng"
	"dnastore/internal/update"
)

// Patch is one incremental block update: bytes
// [DeleteStart, DeleteStart+DeleteCount) are removed, then Insert is
// spliced at InsertPos (evaluated after the deletion). Patches are
// synthesized as DNA "update units" whose address differs from the data
// block only in the version base, so one PCR retrieves data and updates
// together.
type Patch = update.Patch

// BlockPatch pairs a block number with its patch, the unit of
// Partition.UpdateBlocks.
type BlockPatch = blockstore.BlockPatch

// Batch stages write and update operations against a partition and
// commits them atomically with Apply; see Partition.Batch.
type Batch = blockstore.Batch

// BatchError aggregates the per-operation failures of a batch commit.
// A failing batch commits nothing; each OpError records the staging
// index, the block, and an error wrapping one of the sentinel errors
// below, so callers can dispatch with errors.Is/errors.As.
type BatchError = blockstore.BatchError

// OpError reports the failure of one staged batch operation.
type OpError = blockstore.OpError

// Sentinel errors returned (possibly wrapped, including inside a
// BatchError) by partition operations.
var (
	// ErrBlockRange reports a block number outside the partition.
	ErrBlockRange = blockstore.ErrBlockRange
	// ErrBlockSize reports data larger than BlockSize.
	ErrBlockSize = blockstore.ErrBlockSize
	// ErrBlockNotFound reports a read or update of an unwritten block
	// or of an overflow log block, which holds patches, not content:
	// users cannot address log blocks (a write of one gets
	// ErrBlockWritten).
	ErrBlockNotFound = blockstore.ErrBlockNotFound
	// ErrBlockWritten reports a second write of a block: DNA is
	// append-only, so blocks are write-once (use updates instead).
	ErrBlockWritten = blockstore.ErrBlockWritten
	// ErrOverflowFull reports an exhausted overflow-log address space.
	ErrOverflowFull = blockstore.ErrOverflowFull
	// ErrBatchConflict reports a batch that lost an optimistic-
	// concurrency race: a block it staged changed between planning and
	// commit. The batch committed nothing and can be restaged.
	ErrBatchConflict = blockstore.ErrBatchConflict
	// ErrInsufficientCoverage reports a decode that failed for lack of
	// material: slots never observed in the reads, typically because
	// decay drove their species extinct or sequencing was too shallow.
	// Curable by deeper sequencing, re-amplification, or re-synthesis.
	ErrInsufficientCoverage = blockstore.ErrInsufficientCoverage
	// ErrRSMarginExceeded reports strands observed but corrupted past
	// the Reed-Solomon correction margin; only re-synthesis from a
	// surviving copy (or the original data) cures it.
	ErrRSMarginExceeded = blockstore.ErrRSMarginExceeded
	// ErrDepthScale reports a sequencing-depth scale that is not
	// positive and finite, or whose scaled read budget overflows an
	// int. It is returned in two places: by Read for a block request's
	// Scale, and in the Health of a supervised read whose escalated
	// retry depth overflows, wrapped together with
	// ErrRetryBudgetExhausted. The refused reaction sequences nothing.
	ErrDepthScale = blockstore.ErrDepthScale
	// ErrReadRequest reports a ReadRequest with two targets, an unknown
	// mode, or a Scale other than 1 on a Range or All read.
	ErrReadRequest = blockstore.ErrReadRequest
)

// Typed operational-failure classes reported through Health records by
// the supervised read paths when fault injection is enabled; all are
// errors.Is-able through whatever wrapping recovery applied.
var (
	// ErrReactionFailed classifies a PCR reaction that never amplified.
	ErrReactionFailed = fault.ErrReactionFailed
	// ErrRunAborted classifies a sequencing run that aborted
	// mid-flowcell and delivered fewer reads than budgeted.
	ErrRunAborted = fault.ErrRunAborted
	// ErrContaminated classifies a reaction whose amplified pool held
	// significant foreign (cross-tube contaminant) mass.
	ErrContaminated = fault.ErrContaminated
	// ErrRetryBudgetExhausted reports a supervised read that failed
	// every retry its policy allowed; it wraps the last failure class.
	ErrRetryBudgetExhausted = fault.ErrRetryBudgetExhausted
)

// Costs are the accumulated physical-cost counters of a System:
// synthesized strands, consumed primer pairs, sequenced reads, and PCR
// reactions.
type Costs = blockstore.Costs

// CachePolicy selects the eviction policy of the elongated-primer cache.
type CachePolicy = blockstore.CachePolicy

// Cache policies.
const (
	LRU = blockstore.LRU
	LFU = blockstore.LFU
)

// Options configures a System. The zero value selects the paper's
// wet-lab configuration: 150-base strands, 20-base primers, RS(15,11)
// encoding units of 256-byte blocks, and 1024-block partitions.
type Options struct {
	// Seed drives every stochastic component; equal seeds reproduce
	// identical systems bit for bit. 0 selects a fixed default.
	Seed uint64
	// MaxPartitions bounds how many partitions (primer pairs) the system
	// can create. 0 means 8. Each partition consumes two primers from a
	// greedily searched library, mirroring the scarce mutually compatible
	// primer supply the paper describes.
	MaxPartitions int
	// TreeDepth sets blocks per partition to 4^TreeDepth. 0 means the
	// paper's depth 5 (1024 blocks). The strand geometry is adjusted so
	// the sparse index (2 bases per level) fits.
	TreeDepth int
	// Workers sets the engine parallelism: how many of a range or
	// batched read's PCR → sequence → decode reactions, how many
	// per-block decodes inside the pipeline, and how many of a batch
	// write's unit encode+synthesis preparations run concurrently. 0
	// means 1 (serial); negative means GOMAXPROCS. Every reaction and
	// synthesized unit draws noise from its own deterministically forked
	// rng source, so results are byte-identical for every worker count.
	Workers int

	// Decay enables the tube-aging channel: per-day thermal,
	// hydrolytic, and oxidative strand loss, mutation accrual, and
	// per-access mechanical wear, applied when System.Advance moves the
	// clock. nil leaves the system outside time — every operation is
	// byte-identical to a system built without decay. Use
	// RoomTempDecay or AcceleratedDecay for calibrated profiles.
	Decay *DecayProfile

	// Faults enables seeded operational fault injection at every
	// wet-lab stage boundary: PCR reaction failure and partial yield,
	// sequencing-run aborts, synthesis-order dropout, and cross-tube
	// contamination, per the plan's rates. Injection draws from each
	// operation's own deterministically forked rng stream, so campaigns
	// reproduce byte-for-byte at any worker count. nil injects nothing
	// and draws nothing — every output stays byte-identical to a system
	// without fault hooks. Use UniformFaults for a flat per-stage rate.
	Faults *FaultPlan

	// Retry tunes the supervised recovery engine behind ReadSupervised
	// reads (retry and hedge budgets, depth escalation, contamination
	// quarantine) and enables write-side QC: batch commits re-order
	// synthesis units the vendor dropped. nil selects DefaultRetryPolicy
	// for supervised reads but leaves write-side QC off. Ignored without
	// Faults.
	Retry *RetryPolicy
}

// FaultPlan is a seeded operational-fault campaign: per-stage failure
// probabilities and severities. See the fault package for field
// semantics; UniformFaults builds the flat-rate plan the campaign
// studies use.
type FaultPlan = fault.Plan

// UniformFaults returns a plan injecting every stage fault at the
// given per-operation probability.
func UniformFaults(rate float64) FaultPlan { return fault.Uniform(rate) }

// FaultStats counts the faults the system's injector has fired.
type FaultStats = fault.Stats

// RetryPolicy tunes the supervised recovery engine: retry and hedge
// budgets, per-retry sequencing-depth escalation, write-side synthesis
// QC, and contamination quarantine.
type RetryPolicy = fault.RetryPolicy

// DefaultRetryPolicy returns the recovery engine's documented
// defaults: 3 read retries with 2x depth escalation, hedged re-reads
// under coverage 2, 3 synthesis re-orders, quarantine on.
func DefaultRetryPolicy() RetryPolicy { return fault.DefaultRetryPolicy() }

// RecoveryReport summarizes what a supervised read's recovery engine
// did: failures seen, blocks recovered, retries, hedges, quarantined
// species, and the extra sequencing reads recovery cost.
type RecoveryReport = blockstore.RecoveryReport

// DecayProfile sets the per-day hazard and mutation rates of the aging
// channel; see RoomTempDecay and AcceleratedDecay for calibrated
// presets and the decay package for field semantics.
type DecayProfile = decay.Profile

// DecayStats accumulates what aging has done to the tube: species
// aged, strands lost, species driven extinct, mutants created, and
// mechanical wear charged per access.
type DecayStats = decay.Stats

// RoomTempDecay returns the decay profile of dry DNA at room
// temperature, the slow baseline of the durability literature.
func RoomTempDecay() DecayProfile { return decay.RoomTemp() }

// AcceleratedDecay returns an accelerated-aging profile (hazards ~50x
// room temperature, mirroring ~65°C incubation studies), the practical
// choice for simulation horizons measured in hundreds of days.
func AcceleratedDecay() DecayProfile { return decay.Accelerated() }

// ReadRequest names one Partition.Read access: one target — Blocks, a
// Range, or All — a ReadMode, and for block reads a sequencing-depth
// Scale (0 means 1; > 1 probes deeper before declaring a block dead).
// Two targets, or a Scale other than 1 on a Range or All read, are
// rejected with ErrReadRequest before anything is charged, and a Blocks
// entry that is unwritten or an overflow log block with
// ErrBlockNotFound. Range and All reads leave log blocks out.
type ReadRequest = blockstore.ReadRequest

// ReadResult is one read's content and per-block Health reports (entry
// i is block Health[i].Block) plus a supervised read's RecoveryReport.
type ReadResult = blockstore.ReadResult

// ReadMode selects what a read does with its per-block Health reports.
type ReadMode = blockstore.ReadMode

// Read modes: ReadStrict (the zero value) fails on the first block that
// cannot be fully recovered; ReadHealth returns nil content and a typed
// Health.Err for it; ReadSupervised re-reads it under the system's
// RetryPolicy, leaving it nil with Health.Err wrapping
// ErrRetryBudgetExhausted when the retries run out.
const (
	ReadStrict     = blockstore.ReadStrict
	ReadHealth     = blockstore.ReadHealth
	ReadSupervised = blockstore.ReadSupervised
)

// Span is an inclusive block interval, a ReadRequest's Range.
type Span = blockstore.Span

// Health is the per-block condition report of a read or a
// scrub probe: typed failure class, estimated sequencing coverage, and
// the worst unit's consumed Reed-Solomon erasure margin.
type Health = blockstore.Health

// ScrubPolicy tunes System.Scrub: coverage and RS-margin floors,
// repair mode, boost gain, and retry budget. Probes stop at the
// coverage floor, so the policy sets no probe depth.
type ScrubPolicy = blockstore.ScrubPolicy

// ScrubReport summarizes one scrub pass: blocks probed, flagged,
// repaired, and failed, the repair actions taken, and the pass's
// physical cost.
type ScrubReport = blockstore.ScrubReport

// BlockRepair records one flagged block's diagnosis and treatment.
type BlockRepair = blockstore.BlockRepair

// RepairMode selects what Scrub does about an unhealthy block.
type RepairMode = blockstore.RepairMode

// Repair modes.
const (
	// RepairAuto re-amplifies thinned-but-complete blocks and
	// re-synthesizes blocks with extinct slots or corrupted strands.
	RepairAuto = blockstore.RepairAuto
	// RepairNone diagnoses without touching the tube.
	RepairNone = blockstore.RepairNone
	// RepairBoost always re-amplifies.
	RepairBoost = blockstore.RepairBoost
	// RepairResynth always re-reads and re-synthesizes.
	RepairResynth = blockstore.RepairResynth
)

// DefaultScrubPolicy returns the documented scrub defaults.
func DefaultScrubPolicy() ScrubPolicy { return blockstore.DefaultScrubPolicy() }

// BindingStats is a snapshot of the system's binding-cache counters:
// row and content hits (alignments skipped), misses (alignments
// performed), declined first sightings of row-held bindings,
// evictions, resident entries, and compiled-pattern memo traffic.
type BindingStats = blockstore.BindingStats

// System is one simulated DNA tube and its partitions.
type System struct {
	store *blockstore.Store
}

// New creates a System, searching a fresh primer library for it.
func New(opt Options) (*System, error) {
	if opt.Seed == 0 {
		opt.Seed = 0xd4a
	}
	if opt.MaxPartitions == 0 {
		opt.MaxPartitions = 8
	}
	if opt.MaxPartitions < 1 {
		return nil, fmt.Errorf("dnastore: MaxPartitions %d", opt.MaxPartitions)
	}
	if opt.TreeDepth == 0 {
		opt.TreeDepth = 5
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.Workers = opt.Workers
	cfg.Decay = opt.Decay
	if opt.Faults != nil {
		inj, err := fault.NewInjector(*opt.Faults)
		if err != nil {
			return nil, err
		}
		cfg.Faults = inj
		if opt.Retry != nil {
			pol := *opt.Retry // privatize against later caller mutation
			cfg.Retry = &pol
		}
	}
	if opt.TreeDepth != 5 {
		// The payload shrinks or grows with the index field; the shared
		// adjustment trims the strand so the payload stays a whole
		// number of bytes. Geometry.Validate rejects infeasible depths.
		cfg.SetTreeDepth(opt.TreeDepth)
	}
	lib := primer.NewLibrary(primer.DefaultConstraints())
	lib.Search(rng.New(opt.Seed^0x9121e), 2*opt.MaxPartitions, 4_000_000)
	if lib.Len() < 2*opt.MaxPartitions {
		return nil, fmt.Errorf("dnastore: primer search yielded %d of %d primers",
			lib.Len(), 2*opt.MaxPartitions)
	}
	store, err := blockstore.New(cfg, lib.Primers())
	if err != nil {
		return nil, err
	}
	return &System{store: store}, nil
}

// Costs returns the system's accumulated physical-cost counters.
func (s *System) Costs() Costs { return s.store.Costs() }

// TubeDigest returns a digest of the tube's full physical state —
// every species' sequence and abundance. Two systems that executed the
// same operations under the same seed have equal digests, whatever
// their worker counts; useful for verifying deterministic replay.
func (s *System) TubeDigest() [32]byte { return s.store.TubeDigest() }

// BindingStats returns a snapshot of the system's binding-cache
// counters. Every PCR of the system shares one cache: primer ⇄ species
// alignments are pure functions of their sequences, so repeated and
// range reads skip most re-alignment work.
func (s *System) BindingStats() BindingStats {
	st, _ := s.store.BindingStats()
	return st
}

// FaultStats returns the injector's fired-fault counters; zero when
// fault injection is disabled (Options.Faults nil).
func (s *System) FaultStats() FaultStats { return s.store.FaultStats() }

// Advance moves the system's clock forward by days and applies the
// configured decay profile to every species in the tube: exponential
// strand loss, mutant accrual, extinction of depleted species. With no
// profile configured (Options.Decay nil) only the clock moves. Aging
// is deterministic: the same seed, horizon, and profile reproduce the
// same tube at any worker count, however the days are split across
// calls.
func (s *System) Advance(days float64) (DecayStats, error) { return s.store.Advance(days) }

// AgeDays returns the total simulated days the system has aged.
func (s *System) AgeDays() float64 { return s.store.AgeDays() }

// DecayStats returns the accumulated decay and wear statistics.
func (s *System) DecayStats() DecayStats { return s.store.DecayStats() }

// Scrub probes every written block, flags blocks whose health has
// dipped below the policy's floors, and — policy permitting — repairs
// them by re-amplification or re-synthesis. A probe is a floor-stopped
// zero-slack stream. The zero ScrubPolicy selects the defaults; a
// policy with a NaN or infinite field is rejected before any probe
// runs.
func (s *System) Scrub(pol ScrubPolicy) (*ScrubReport, error) { return s.store.Scrub(pol) }

// CreatePartition allocates the next primer pair and returns an empty
// partition with its own PCR-navigable index tree.
func (s *System) CreatePartition(name string) (*Partition, error) {
	p, err := s.store.CreatePartition(name)
	if err != nil {
		return nil, err
	}
	return &Partition{p: p}, nil
}

// Partition returns a previously created partition.
func (s *System) Partition(name string) (*Partition, bool) {
	p, ok := s.store.Partition(name)
	if !ok {
		return nil, false
	}
	return &Partition{p: p}, true
}

// Partition is a block device inside one primer pair's address space.
type Partition struct {
	p *blockstore.Partition
}

// Name returns the partition name.
func (p *Partition) Name() string { return p.p.Name() }

// Blocks returns the number of addressable blocks (4^depth).
func (p *Partition) Blocks() int { return p.p.Blocks() }

// BlockSize returns the usable bytes per block (256 in the default
// geometry).
func (p *Partition) BlockSize() int { return p.p.BlockSize() }

// WriteBlock stores data (at most BlockSize bytes) as the block's
// original version. Blocks are write-once; use UpdateBlock afterwards —
// DNA is an append-only medium. To store many blocks, Batch or
// WriteBlocks commits them with one planning round-trip and the unit
// synthesis fanned across the configured workers.
func (p *Partition) WriteBlock(block int, data []byte) error {
	return p.p.WriteBlock(block, data)
}

// Write stores data sequentially from block 0 in one batch commit and
// returns the number of blocks consumed. On error nothing is written.
func (p *Partition) Write(data []byte) (int, error) { return p.p.Write(data) }

// Batch returns an empty staged batch. Write and Update stage
// operations without any wet work; Apply plans version and log slots
// for the whole batch, encodes and synthesizes every unit across the
// configured workers (byte-identical at any worker count), and commits
// atomically under one short lock. Conflicts — double writes, updates
// of unwritten blocks, overflow exhaustion, concurrent mutations of
// staged blocks — are reported per operation via *BatchError, and a
// failing batch commits nothing.
func (p *Partition) Batch() *Batch { return p.p.Batch() }

// WriteBlocks stores several blocks in one batch commit, staged in
// ascending block order. On error (a *BatchError reporting each failed
// block) nothing is written.
func (p *Partition) WriteBlocks(blocks map[int][]byte) error { return p.p.WriteBlocks(blocks) }

// UpdateBlocks logs several patches in one batch commit, applied in
// slice order; several patches against one block land in consecutive
// version slots, overflow chains included. On error nothing is written.
func (p *Partition) UpdateBlocks(patches []BlockPatch) error { return p.p.UpdateBlocks(patches) }

// Read is the partition's one read call. The request's target picks
// the primer — each block's fully elongated primer, one partially
// elongated primer per prefix cover of a Range, the main primer for
// All — and its mode what the read does with the per-block Health
// reports. Deterministic at any worker count.
func (p *Partition) Read(req ReadRequest) (ReadResult, error) { return p.p.Read(req) }

// ReadBlock is a strict one-block Read returning the block's content
// with all updates applied. A block whose original or any update fails
// to decode is an error (errors.Is against ErrInsufficientCoverage /
// ErrRSMarginExceeded), never older content.
func (p *Partition) ReadBlock(block int) ([]byte, error) { return p.p.ReadBlock(block) }

// ReadRange is a strict Range Read of lo..hi (inclusive) — the paper's
// sequential access — returning the written data blocks' content; use
// Read to learn which block each entry is.
func (p *Partition) ReadRange(lo, hi int) ([][]byte, error) { return p.p.ReadRange(lo, hi) }

// UpdateBlock logs a patch against a block. The first two updates live
// in the block's own version slots; later ones overflow into a log
// block chained from the last slot. Log blocks are allocated downward
// from the top of the partition and cannot be addressed: updating or
// reading one fails with ErrBlockNotFound, writing one with
// ErrBlockWritten.
func (p *Partition) UpdateBlock(block int, patch Patch) error {
	return p.p.UpdateBlock(block, patch)
}

// Versions returns the last version slot a block's updates have used:
// its update count up to 2, then 3 once it has overflowed into a log.
func (p *Partition) Versions(block int) int { return p.p.Versions(block) }

// EnableCache installs an elongated-primer cache of the given capacity,
// so frequently accessed blocks pay primer synthesis only once.
func (p *Partition) EnableCache(capacity int, policy CachePolicy) error {
	c, err := blockstore.NewPrimerCache(capacity, policy)
	if err != nil {
		return err
	}
	p.p.SetPrimerCache(c)
	return nil
}
