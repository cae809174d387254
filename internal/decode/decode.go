// Package decode implements the read-to-data pipeline of Sections 6.6
// and 8 around clustering: the per-read primer filter and provisional
// address parse, and — over clusters ordered by descending size — trace
// reconstruction, address placement, Reed-Solomon unit decoding, and
// the candidate-recursion fallback that recovers from misprimed strands
// masquerading as target strands (Section 8.1). Clustering itself, and
// with it every decode of a read set, is the streaming engine's
// (package streamdecode): it applies the filter read by read, clusters
// incrementally, and hands its clusters to DecodeClusters.
package decode

import (
	"errors"
	"fmt"
	"sort"

	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/parallel"
	"dnastore/internal/recycle"
	"dnastore/internal/trace"
)

// ErrDecode is returned when a block cannot be reconstructed from the
// given reads.
var ErrDecode = errors.New("decode: cannot reconstruct block")

// ErrConfig is returned by New (and Config.Validate) for a distance
// tolerance the pipeline cannot run with.
var ErrConfig = errors.New("decode: invalid configuration")

// Typed health errors classify why a unit failed, so callers can
// distinguish a transient sequencing shortfall from permanent data
// loss. Both wrap ErrDecode, so existing errors.Is(err, ErrDecode)
// checks keep working.
var (
	// ErrInsufficientCoverage: too few distinct strands of the unit
	// were observed — more slots are missing than the Reed-Solomon
	// parity can erase. Deeper sequencing (or re-amplification of a
	// thinned tube) can cure it; the data may still be present.
	ErrInsufficientCoverage = fmt.Errorf("%w: insufficient coverage", ErrDecode)
	// ErrRSMarginExceeded: every slot was observed but the unit still
	// failed RS decoding and candidate recursion — the strands
	// themselves are too corrupted. Only re-synthesis cures it.
	ErrRSMarginExceeded = fmt.Errorf("%w: correction margin exceeded", ErrDecode)
)

// Config tunes the pipeline.
type Config struct {
	Geometry layout.Geometry
	Cluster  cluster.Config
	// MaxPrimerDist is the edit-distance tolerance when locating the
	// main primers inside a read.
	MaxPrimerDist int
	// MaxIndexDist is the tolerance when resolving a reconstructed
	// index against the index tree.
	MaxIndexDist int
	// MaxCandidates bounds per-address alternative strands kept for the
	// Section 8.1 recursive retry, and MaxCombinations bounds how many
	// alternative assignments are attempted per unit.
	MaxCandidates   int
	MaxCombinations int
	// VerifyUnit, when non-nil, validates a candidate unit after
	// de-randomization. It is the correctness oracle Section 8.1's
	// recursive retry assumes ("until we correctly recover our data"):
	// candidate assignments that decode to a consistent-but-wrong RS
	// codeword are rejected and the search continues. Package blockstore
	// installs a CRC check over the unit padding.
	VerifyUnit func(data []byte) bool
	// Patterns, when non-nil, supplies the compiled primer patterns
	// from a shared memo instead of compiling per pipeline. Package
	// blockstore installs its binding cache here, so a store's many
	// pipelines (and its PCR reactions) share one Eq table per primer.
	Patterns PatternCompiler
	// Workers fans per-cluster trace reconstruction and per-unit RS
	// decoding out across a worker pool, and is the fan-out the
	// streaming engine's one-shot Decode gives its per-read stage.
	// 0 means 1 (serial); negative means GOMAXPROCS. Every stage is a
	// pure function of its inputs, so results are identical for any
	// worker count.
	Workers int
}

// Validate checks the geometry and the distance tolerances. A negative
// MaxPrimerDist would make Keep discard every read, and a negative
// MaxIndexDist would let no index resolve, so each wraps ErrConfig.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.MaxPrimerDist < 0 {
		return fmt.Errorf("%w: MaxPrimerDist %d is negative", ErrConfig, c.MaxPrimerDist)
	}
	if c.MaxIndexDist < 0 {
		return fmt.Errorf("%w: MaxIndexDist %d is negative", ErrConfig, c.MaxIndexDist)
	}
	return nil
}

// PatternCompiler memoizes dna.CompilePattern results across
// consumers. *binding.Cache implements it; the interface is declared
// here structurally so the pipeline does not depend on the cache.
type PatternCompiler interface {
	Pattern(seq dna.Seq) *dna.Pattern
}

// DefaultConfig returns a configuration matched to the paper's geometry.
func DefaultConfig() Config {
	return Config{
		Geometry:        layout.PaperGeometry(),
		Cluster:         cluster.DefaultConfig(),
		MaxPrimerDist:   3,
		MaxIndexDist:    2,
		MaxCandidates:   3,
		MaxCombinations: 64,
	}
}

// Pipeline decodes sequencing reads of one partition. A Pipeline is
// immutable after construction and safe for concurrent use; with
// cfg.Workers > 1 each DecodeClusters call additionally fans its own
// internal stages across a worker pool.
type Pipeline struct {
	cfg     Config
	unit    *layout.UnitCodec
	tree    *indextree.Tree
	rand    *codec.Randomizer
	fwdPat  *dna.Pattern // primers compiled once; the filter only streams reads
	revPat  *dna.Pattern
	workers int
}

// New constructs a pipeline for a partition defined by its primer pair,
// index tree and randomization seed.
func New(cfg Config, tree *indextree.Tree, fwd, rev dna.Seq, rand *codec.Randomizer) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tree == nil || rand == nil {
		return nil, fmt.Errorf("decode: nil tree or randomizer")
	}
	if tree.IndexLen() != cfg.Geometry.IndexLen {
		return nil, fmt.Errorf("decode: tree index length %d != geometry %d",
			tree.IndexLen(), cfg.Geometry.IndexLen)
	}
	if len(fwd) != cfg.Geometry.PrimerLen || len(rev) != cfg.Geometry.PrimerLen {
		return nil, fmt.Errorf("decode: primer lengths %d/%d, want %d",
			len(fwd), len(rev), cfg.Geometry.PrimerLen)
	}
	unit, err := layout.NewUnitCodec(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	compile := dna.CompilePattern
	if cfg.Patterns != nil {
		compile = cfg.Patterns.Pattern
	}
	return &Pipeline{
		cfg:     cfg,
		unit:    unit,
		tree:    tree,
		rand:    rand,
		fwdPat:  compile(fwd),
		revPat:  compile(rev),
		workers: parallel.Resolve(cfg.Workers),
	}, nil
}

// Unit returns the pipeline's unit codec (shared with the encoder).
func (p *Pipeline) Unit() *layout.UnitCodec { return p.unit }

// Config returns a copy of the pipeline's configuration, so the
// streaming engine clusters with the pipeline's own parameters.
func (p *Pipeline) Config() Config { return p.cfg }

// Workers returns the resolved worker count.
func (p *Pipeline) Workers() int { return p.workers }

// Keep reports whether a read contains both partition primers within
// the configured tolerance (Section 8's step 1: "we first search for
// the ... forward primer and reverse primer of our target block in our
// reads"). The streaming engine's stage A applies it read by read.
// Unlike a per-read trim, the read is kept whole: reads are naturally
// anchored at the strand start, and consensus over full reads avoids
// the start-position jitter that approximate trimming introduces.
func (p *Pipeline) Keep(read dna.Seq) bool {
	if len(read) < p.cfg.Geometry.StrandLen/2 {
		return false
	}
	fwdEnd, d := p.fwdPat.FindApprox(read, p.cfg.MaxPrimerDist)
	if fwdEnd < 0 || d > p.cfg.MaxPrimerDist {
		return false
	}
	revEnd, d2 := p.revPat.FindApproxRight(read, p.cfg.MaxPrimerDist)
	if revEnd < 0 || d2 > p.cfg.MaxPrimerDist {
		return false
	}
	return true
}

// strandCandidate is a reconstructed strand with its resolved address.
type strandCandidate struct {
	block       int
	version     int
	intra       int
	payload     []byte
	clusterSize int
	indexDist   int
}

// workspace holds the reconstruction buffers a decode reuses across
// clusters: the trace workspace, the gathered cluster reads and
// fitLength's padding. A Pipeline holds none, so it stays safe for
// concurrent use: a decode call (each task, on the parallel path)
// takes one from workspaces and puts it back, and the next call, on
// any pipeline, reuses it.
type workspace struct {
	trace trace.Workspace
	seqs  []dna.Seq
	pad   dna.Seq
}

// workspaces holds idle workspaces; its entries are weak, so a
// collection frees the ones no decode took back.
var workspaces recycle.List[workspace]

// getWorkspace takes an idle workspace, or makes one.
func getWorkspace() *workspace {
	if ws := workspaces.Get(); ws != nil {
		return ws
	}
	return new(workspace)
}

// reconstruct turns one cluster of full reads into a candidate strand.
// Large clusters use the ensemble consensus, which suppresses BMA's
// residual mid-strand errors on noisy channels; iterative refinement
// then re-votes every position against the aligned reads. The
// consensus lives in ws; the candidate's payload is a fresh copy.
func (p *Pipeline) reconstruct(ws *workspace, reads []dna.Seq, size int) (strandCandidate, bool) {
	g := p.cfg.Geometry
	strandLen := g.StrandLen
	var cons dna.Seq
	var err error
	if len(reads) >= 15 {
		cons, err = ws.trace.Ensemble(reads, strandLen, 3)
	} else {
		cons, err = ws.trace.DoubleSided(reads, strandLen)
	}
	if err != nil {
		return strandCandidate{}, false
	}
	if len(reads) >= 3 {
		cons = ws.trace.Refine(reads, cons, 2)
		cons = ws.fitLength(cons, strandLen)
	}
	// Field offsets within the full strand: fwd primer, sync, index,
	// version, intra, payload.
	pos := g.PrimerLen + 1 // skip forward primer and sync base
	idx := cons[pos : pos+g.IndexLen]
	pos += g.IndexLen
	// The strict walk settles the vast majority of consensus indexes;
	// only corrupted ones pay for the pruned tolerant search.
	block, dist, ok := p.tree.Resolve(idx, p.cfg.MaxIndexDist)
	if !ok {
		return strandCandidate{}, false
	}
	version := 0
	for i := 0; i < g.VersionBases; i++ {
		version = version<<2 | int(cons[pos])
		pos++
	}
	intra := 0
	for i := 0; i < g.IntraLen; i++ {
		intra = intra<<2 | int(cons[pos])
		pos++
	}
	if intra >= p.unit.Molecules() {
		return strandCandidate{}, false
	}
	payload, err := codec.BasesToBytes(cons[pos : pos+g.PayloadBases()])
	if err != nil {
		return strandCandidate{}, false
	}
	return strandCandidate{
		block:       block,
		version:     version,
		intra:       intra,
		payload:     payload,
		clusterSize: size,
		indexDist:   dist,
	}, true
}

// ProvisionalAddress parses the address fields of a single read —
// index, version, intra, laid out after the located forward primer —
// without any consensus. It is the cheap per-read slot estimate the
// streaming engine accumulates coverage against. Sequencing errors make
// a single-read parse unreliable (an indel before the address shifts
// every field), which a coverage floor tolerates: a misparse delays or
// pads one slot's count, and the engine escalates to the full read
// budget whenever the final decode fails. It must never be used for
// data recovery.
func (p *Pipeline) ProvisionalAddress(read dna.Seq) (block, version, intra int, ok bool) {
	g := p.cfg.Geometry
	fwdEnd, d := p.fwdPat.FindApprox(read, p.cfg.MaxPrimerDist)
	if fwdEnd < 0 || d > p.cfg.MaxPrimerDist {
		return 0, 0, 0, false
	}
	pos := fwdEnd + 1 // skip the sync base
	if pos+g.IndexLen+g.VersionBases+g.IntraLen > len(read) {
		return 0, 0, 0, false
	}
	idx := read[pos : pos+g.IndexLen]
	pos += g.IndexLen
	if block, _, ok = p.tree.Resolve(idx, p.cfg.MaxIndexDist); !ok {
		return 0, 0, 0, false
	}
	for i := 0; i < g.VersionBases; i++ {
		version = version<<2 | int(read[pos])
		pos++
	}
	for i := 0; i < g.IntraLen; i++ {
		intra = intra<<2 | int(read[pos])
		pos++
	}
	if intra >= p.unit.Molecules() {
		return 0, 0, 0, false
	}
	return block, version, intra, true
}

// fitLength pads (with A) or truncates a consensus to the expected
// strand length; residual length errors land in the payload tail where
// the Reed-Solomon code absorbs them. A padded consensus lives in ws.
func (ws *workspace) fitLength(s dna.Seq, n int) dna.Seq {
	if len(s) >= n {
		return s[:n]
	}
	out := append(ws.pad[:0], s...)
	for len(out) < n {
		out = append(out, dna.A)
	}
	ws.pad = out
	return out
}

// BlockResult is the outcome of decoding one block.
type BlockResult struct {
	Block int
	// Versions maps version number to the de-randomized unit bytes
	// (DataBytes() long). Version 0 is the original data unit; higher
	// versions are update-patch units.
	Versions map[int][]byte
	// Corrected is the total number of RS symbol corrections applied.
	Corrected int
	// ClustersUsed is how many clusters were consumed before every
	// address was filled, the quantity Section 8 reports as 31 for 30
	// strands.
	ClustersUsed int
	// CandidateRetries counts Section 8.1 recursive retries performed.
	CandidateRetries int
	// UnitErrors maps version number to the typed failure of units that
	// could not be recovered (errors.Is-able against
	// ErrInsufficientCoverage / ErrRSMarginExceeded). Versions present
	// in Versions never appear here.
	UnitErrors map[int]error
	// MissingSlots and ErasedSlots total, across the block's units, the
	// strand slots that were never observed and the observed slots the
	// decoder had to treat as erasures — the raw inputs of the RS-margin
	// health estimate.
	MissingSlots int
	ErasedSlots  int
	// ReadsUsed is the number of sequencing reads supporting the
	// block's primary strand candidates, the per-block coverage
	// estimate a scrubber compares against the Heckel floor.
	ReadsUsed int
	// UnitStats breaks the health numbers down per (observed) version,
	// so a caller that knows which versions physically exist can ignore
	// phantom units conjured by index- or version-field read errors.
	UnitStats map[int]UnitStat
}

// UnitStat is one unit's raw health accounting.
type UnitStat struct {
	Missing   int // slots never observed
	Erased    int // observed slots the decoder erased
	Corrected int // RS symbol corrections applied
	Reads     int // sequencing reads behind the unit's primary strands
}

// addrKey identifies one strand slot.
type addrKey struct {
	block, version, intra int
}

// FinishBlock extracts one block's result from a DecodeClusters
// outcome, classifying absence as a typed coverage failure — the
// wrap-up of the streaming engine's per-block finalize.
func FinishBlock(results map[int]*BlockResult, err error, block int) (*BlockResult, error) {
	res := results[block]
	if err != nil {
		return res, err
	}
	if res == nil {
		// No strand of the block ever surfaced in the reads.
		return nil, fmt.Errorf("%w: block %d not recovered", ErrInsufficientCoverage, block)
	}
	if len(res.Versions) == 0 {
		return res, fmt.Errorf("%w: block %d not recovered", worstUnitError(res), block)
	}
	return res, nil
}

// Err summarizes the block's unit failures as the worst typed health
// error — ErrRSMarginExceeded (permanent corruption) dominates
// ErrInsufficientCoverage (curable shortfall) — or nil when every
// observed unit decoded.
func (r *BlockResult) Err() error {
	if r == nil || len(r.UnitErrors) == 0 {
		return nil
	}
	return worstUnitError(r)
}

// worstUnitError picks the error that best summarizes a failed block:
// permanent corruption (RS margin) dominates a coverage shortfall,
// which dominates the generic sentinel.
func worstUnitError(res *BlockResult) error {
	err := error(ErrDecode)
	for _, ue := range res.UnitErrors {
		if errors.Is(ue, ErrRSMarginExceeded) {
			return ErrRSMarginExceeded
		}
		if errors.Is(ue, ErrInsufficientCoverage) {
			err = ErrInsufficientCoverage
		}
	}
	return err
}

// DecodeClusters runs the back half of the pipeline — trace
// reconstruction in cluster order, address placement, RS unit decoding
// with candidate recursion — over an already-clustered read set. kept
// must contain only reads passing Keep, and clusters must be ordered by
// descending size, ties in founding order (cluster.Group's contract,
// which the streaming engine's one-shard clusters reproduce exactly).
// target < 0 decodes every visible block; target >= 0 consumes clusters
// in descending size order only until that block's observed versions
// complete, mirroring the paper's procedure of sequencing only ~225
// reads.
func (p *Pipeline) DecodeClusters(kept []dna.Seq, clusters [][]int, target int) (map[int]*BlockResult, error) {
	if len(kept) == 0 {
		return nil, fmt.Errorf("%w: no reads contain the partition primers", ErrInsufficientCoverage)
	}
	// Step 3: reconstruct in descending cluster-size order, keeping the
	// first strand per address and up to MaxCandidates alternates.
	// Reconstruction of each cluster is pure, so the parallel path
	// precomputes candidates in batches and a serial sweep consumes them
	// in the exact order — and with the exact early stop — of the serial
	// path. A whole-read decode (target < 0) never stops early, so it
	// precomputes everything in one batch; a single-block decode usually
	// stops after the first few size-ordered clusters, so small batches
	// bound the reconstruction work wasted beyond the serial stop point.
	primary := make(map[addrKey]strandCandidate)
	alternates := make(map[addrKey][]strandCandidate)
	clustersUsed := 0
	stopped := false
	consume := func(cand strandCandidate, ok bool) {
		if !ok {
			return
		}
		clustersUsed++
		k := addrKey{cand.block, cand.version, cand.intra}
		if _, dup := primary[k]; dup {
			if len(alternates[k]) < p.cfg.MaxCandidates {
				alternates[k] = append(alternates[k], cand)
			}
			return
		}
		primary[k] = cand
		if target >= 0 && p.targetComplete(primary, target) {
			stopped = true
		}
	}
	if p.workers > 1 && len(clusters) > 1 {
		batch := len(clusters)
		if target >= 0 {
			batch = 4 * p.workers
		}
		pre := make([]reconstructed, batch)
		// parallel.Run names no worker, so each task takes a workspace
		// from the free list and returns it.
		for start := 0; start < len(clusters) && !stopped; start += batch {
			end := start + batch
			if end > len(clusters) {
				end = len(clusters)
			}
			parallel.Run(p.workers, end-start, func(i int) error {
				ws := getWorkspace()
				pre[i].cand, pre[i].ok = p.reconstructCluster(ws, kept, clusters[start+i])
				workspaces.Put(ws)
				return nil
			})
			for i := start; i < end && !stopped; i++ {
				consume(pre[i-start].cand, pre[i-start].ok)
			}
		}
	} else {
		ws := getWorkspace()
		for _, members := range clusters {
			if stopped {
				break
			}
			consume(p.reconstructCluster(ws, kept, members))
		}
		workspaces.Put(ws)
	}
	// Step 4: assemble units and RS-decode, with candidate recursion on
	// failure. Each (block, version) unit decodes independently off the
	// now-frozen candidate maps, so the units fan out.
	byUnit := make(map[int]map[int]bool) // block -> versions seen
	for k := range primary {
		if byUnit[k.block] == nil {
			byUnit[k.block] = make(map[int]bool)
		}
		byUnit[k.block][k.version] = true
	}
	type unitTask struct {
		block, version int
	}
	var tasks []unitTask
	for block, versions := range byUnit {
		if target >= 0 && block != target {
			continue
		}
		for version := range versions {
			tasks = append(tasks, unitTask{block, version})
		}
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].block != tasks[j].block {
			return tasks[i].block < tasks[j].block
		}
		return tasks[i].version < tasks[j].version
	})
	type unitResult struct {
		data                                []byte
		corrected, retries, missing, erased int
		err                                 error
	}
	decoded := make([]unitResult, len(tasks))
	parallel.Run(p.workers, len(tasks), func(i int) error {
		t := tasks[i]
		r := &decoded[i]
		r.data, r.corrected, r.retries, r.missing, r.erased, r.err = p.decodeUnit(primary, alternates, t.block, t.version)
		return nil
	})
	// Per-block and per-unit coverage: reads supporting the primary
	// strands.
	readsByBlock := make(map[int]int)
	readsByUnit := make(map[unitTask]int)
	for k, cand := range primary {
		readsByBlock[k.block] += cand.clusterSize
		readsByUnit[unitTask{k.block, k.version}] += cand.clusterSize
	}
	results := make(map[int]*BlockResult)
	recovered := 0
	for i, t := range tasks {
		res, ok := results[t.block]
		if !ok {
			res = &BlockResult{
				Block: t.block, Versions: make(map[int][]byte),
				ClustersUsed: clustersUsed, ReadsUsed: readsByBlock[t.block],
			}
			results[t.block] = res
		}
		res.MissingSlots += decoded[i].missing
		res.ErasedSlots += decoded[i].erased
		if res.UnitStats == nil {
			res.UnitStats = make(map[int]UnitStat)
		}
		res.UnitStats[t.version] = UnitStat{
			Missing:   decoded[i].missing,
			Erased:    decoded[i].erased,
			Corrected: decoded[i].corrected,
			Reads:     readsByUnit[t],
		}
		if decoded[i].err != nil {
			// A failed unit stays visible as a typed health error instead
			// of vanishing: graceful degradation needs the distinction
			// between "never written" and "written but unrecoverable".
			if res.UnitErrors == nil {
				res.UnitErrors = make(map[int]error)
			}
			res.UnitErrors[t.version] = decoded[i].err
			continue
		}
		res.Versions[t.version] = decoded[i].data
		res.Corrected += decoded[i].corrected
		res.CandidateRetries += decoded[i].retries
		recovered++
	}
	if recovered == 0 {
		// Summarize with the worst failure class across blocks (a
		// priority max, so the pick is deterministic over the map).
		err := error(ErrDecode)
		for _, res := range results {
			e := worstUnitError(res)
			if errors.Is(e, ErrRSMarginExceeded) {
				err = e
				break
			}
			if errors.Is(e, ErrInsufficientCoverage) {
				err = e
			}
		}
		return results, fmt.Errorf("%w: no unit decoded", err)
	}
	return results, nil
}

// reconstructed is a precomputed cluster-reconstruction outcome.
type reconstructed struct {
	cand strandCandidate
	ok   bool
}

// reconstructCluster gathers a cluster's reads into ws and
// reconstructs its candidate strand.
func (p *Pipeline) reconstructCluster(ws *workspace, kept []dna.Seq, members []int) (strandCandidate, bool) {
	seqs := ws.seqs[:0]
	for _, m := range members {
		seqs = append(seqs, kept[m])
	}
	ws.seqs = seqs
	return p.reconstruct(ws, seqs, len(members))
}

// targetComplete reports whether every intra slot of every observed
// version of the target block is filled.
func (p *Pipeline) targetComplete(primary map[addrKey]strandCandidate, target int) bool {
	versions := make(map[int]int)
	for k := range primary {
		if k.block == target {
			versions[k.version]++
		}
	}
	if len(versions) == 0 {
		return false
	}
	for _, n := range versions {
		if n < p.unit.Molecules() {
			return false
		}
	}
	return true
}

// decodeUnit attempts the RS decode of one (block, version) unit. On
// failure it retries with alternate candidates (Section 8.1's
// "recursively try to decode the original data using each of these
// candidates"), and finally treats the lowest-confidence slots (smallest
// clusters, whose consensus is least reliable) as erasures. The missing
// and erased counts report the unit's health: slots never observed, and
// observed slots the successful (or final) attempt treated as erasures.
func (p *Pipeline) decodeUnit(primary map[addrKey]strandCandidate, alternates map[addrKey][]strandCandidate, block, version int) (data []byte, corrected, retries, missing, erased int, err error) {
	n := p.unit.Molecules()
	payloads := make([][]byte, n)
	var alternateSlots []addrKey
	var filled []strandCandidate
	for intra := 0; intra < n; intra++ {
		k := addrKey{block, version, intra}
		if cand, ok := primary[k]; ok {
			payloads[intra] = cand.payload
			filled = append(filled, cand)
			if len(alternates[k]) > 0 {
				alternateSlots = append(alternateSlots, k)
			}
		} else {
			missing++
		}
	}
	parity := p.unit.Molecules() - p.unit.DataMolecules()
	if missing > parity {
		// More slots lost than the RS parity can erase: no candidate
		// substitution or erasure schedule can succeed (alternates only
		// exist for observed slots), so fail fast with the coverage
		// classification.
		return nil, 0, 0, missing, 0,
			fmt.Errorf("%w: block %d version %d: %d of %d slots missing",
				ErrInsufficientCoverage, block, version, missing, n)
	}
	try := func(pl [][]byte) ([]byte, int, error) {
		raw, corr, err := p.unit.Decode(pl)
		if err != nil {
			return nil, 0, err
		}
		unitRand := p.rand.Derive(unitSeed(block, version))
		out := unitRand.Apply(raw)
		if p.cfg.VerifyUnit != nil && !p.cfg.VerifyUnit(out) {
			return nil, 0, fmt.Errorf("%w: unit integrity check failed", ErrDecode)
		}
		return out, corr, nil
	}
	if out, corr, err := try(payloads); err == nil {
		return out, corr, 0, missing, 0, nil
	}
	// Candidate recursion: substitute alternates one slot at a time, then
	// in pairs, bounded by MaxCombinations.
	sort.Slice(alternateSlots, func(i, j int) bool {
		return alternateSlots[i].intra < alternateSlots[j].intra
	})
	combos := 0
	for _, k := range alternateSlots {
		for _, alt := range alternates[k] {
			if combos >= p.cfg.MaxCombinations {
				break
			}
			combos++
			pl := make([][]byte, n)
			copy(pl, payloads)
			pl[k.intra] = alt.payload
			if out, corr, err := try(pl); err == nil {
				return out, corr, combos, missing, 0, nil
			}
		}
	}
	// Erase suspicious slots (the ones that had competing candidates) and
	// let the RS erasure capability fill them in.
	if len(alternateSlots) > 0 && missing+len(alternateSlots) <= parity {
		pl := make([][]byte, n)
		copy(pl, payloads)
		for _, k := range alternateSlots {
			pl[k.intra] = nil
		}
		combos++
		if out, corr, err := try(pl); err == nil {
			return out, corr, combos, missing, len(alternateSlots), nil
		}
	}
	// Last resort for low-coverage retrievals: the consensus of a 1- or
	// 2-read cluster is the least trustworthy, so progressively erase
	// the smallest-cluster slots within the remaining erasure budget.
	sort.Slice(filled, func(i, j int) bool { return filled[i].clusterSize < filled[j].clusterSize })
	budget := parity - missing
	for k := 1; k <= budget && k <= len(filled); k++ {
		if combos >= p.cfg.MaxCombinations {
			break
		}
		pl := make([][]byte, n)
		copy(pl, payloads)
		for i := 0; i < k; i++ {
			pl[filled[i].intra] = nil
		}
		combos++
		if out, corr, err := try(pl); err == nil {
			return out, corr, combos, missing, k, nil
		}
	}
	// Every slot was observed (or within erasure budget) yet every
	// attempt failed: the strands themselves are beyond the code's
	// correction margin.
	return nil, 0, combos, missing, 0,
		fmt.Errorf("%w: block %d version %d", ErrRSMarginExceeded, block, version)
}

// unitSeed derives the per-unit randomizer stream id.
func unitSeed(block, version int) uint64 {
	return uint64(block)<<8 | uint64(version)
}

// UnitSeed exposes the per-unit randomizer stream id for encoders, so
// the write path in package blockstore whitens with the exact stream the
// decoder expects.
func UnitSeed(block, version int) uint64 { return unitSeed(block, version) }
