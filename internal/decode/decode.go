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
	Cluster cluster.Config
	// MaxPrimerDist is the edit-distance tolerance when locating the
	// main primers inside a read.
	MaxPrimerDist int
	// MaxIndexDist is the tolerance when resolving a reconstructed
	// index against the index tree.
	MaxIndexDist int
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

// Validate checks the distance tolerances. A negative MaxPrimerDist
// would make Keep discard every read, and a negative MaxIndexDist would
// let no index resolve, so each wraps ErrConfig.
func (c Config) Validate() error {
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

// DefaultConfig returns the decode tolerances matched to the paper's
// geometry.
func DefaultConfig() Config {
	return Config{
		Cluster:       cluster.DefaultConfig(),
		MaxPrimerDist: 3,
		MaxIndexDist:  2,
	}
}

// maxAlternates bounds the alternative strands kept per slot for the
// Section 8.1 recursive retry, and maxCombinations bounds how many
// alternative assignments are attempted per unit.
const (
	maxAlternates   = 3
	maxCombinations = 64
)

// Pipeline decodes sequencing reads of one partition. A Pipeline is
// immutable after construction and safe for concurrent use; with
// cfg.Workers > 1 each DecodeClusters call additionally fans its own
// internal stages across a worker pool.
type Pipeline struct {
	cfg     Config
	unit    *layout.UnitCodec
	tree    *indextree.Tree
	fwdPat  *dna.Pattern // primers compiled once; the filter only streams reads
	revPat  *dna.Pattern
	workers int
}

// New constructs a pipeline for a partition defined by its primer pair,
// index tree and unit codec. The codec's seal is the correctness oracle
// Section 8.1's recursive retry assumes ("until we correctly recover
// our data"): a candidate assignment that decodes to a
// consistent-but-wrong RS codeword fails the seal and the search goes on.
func New(cfg Config, tree *indextree.Tree, fwd, rev dna.Seq, unit *layout.UnitCodec) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tree == nil || unit == nil {
		return nil, fmt.Errorf("decode: nil tree or unit codec")
	}
	g := unit.Geometry()
	if tree.IndexLen() != g.IndexLen {
		return nil, fmt.Errorf("decode: tree index length %d != geometry %d", tree.IndexLen(), g.IndexLen)
	}
	if len(fwd) != g.PrimerLen || len(rev) != g.PrimerLen {
		return nil, fmt.Errorf("decode: primer lengths %d/%d, want %d", len(fwd), len(rev), g.PrimerLen)
	}
	compile := dna.CompilePattern
	if cfg.Patterns != nil {
		compile = cfg.Patterns.Pattern
	}
	return &Pipeline{
		cfg:     cfg,
		unit:    unit,
		tree:    tree,
		fwdPat:  compile(fwd),
		revPat:  compile(rev),
		workers: parallel.Resolve(cfg.Workers),
	}, nil
}

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
	if len(read) < p.unit.Geometry().StrandLen/2 {
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
	g := p.unit.Geometry()
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
	if intra >= layout.UnitMolecules {
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
	g := p.unit.Geometry()
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
	if intra >= layout.UnitMolecules {
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
	// Units maps version number to the outcome of that (block, version)
	// unit. Version 0 is the original data unit; higher versions are
	// update-patch units. Every version with an observed strand appears,
	// phantoms conjured by index- or version-field read errors included,
	// so a caller that knows which versions physically exist filters by
	// them.
	Units map[int]Unit
	// ClustersUsed is how many clusters were consumed before every
	// address was filled, the quantity Section 8 reports as 31 for 30
	// strands.
	ClustersUsed int
}

// Unit is one (block, version) unit's decode outcome and raw health
// accounting.
type Unit struct {
	// Data is the de-randomized unit (DataBytes() long), nil exactly
	// when Err is set.
	Data []byte
	// Err is the typed failure of a unit that could not be recovered
	// (errors.Is-able against ErrInsufficientCoverage /
	// ErrRSMarginExceeded).
	Err       error
	Missing   int // slots never observed
	Erased    int // observed slots the successful attempt erased
	Corrected int // RS symbol corrections applied
	Reads     int // sequencing reads behind the unit's primary strands
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
	class := error(ErrDecode)
	for _, u := range res.Units {
		if u.Err == nil {
			return res, nil
		}
		class = worse(class, u.Err)
	}
	return res, fmt.Errorf("%w: block %d not recovered", class, block)
}

// worse folds two failures into the class that best summarizes them:
// permanent corruption (RS margin) dominates a coverage shortfall,
// which dominates the generic ErrDecode.
func worse(a, b error) error {
	switch {
	case errors.Is(a, ErrRSMarginExceeded) || errors.Is(b, ErrRSMarginExceeded):
		return ErrRSMarginExceeded
	case errors.Is(a, ErrInsufficientCoverage) || errors.Is(b, ErrInsufficientCoverage):
		return ErrInsufficientCoverage
	}
	return ErrDecode
}

// unitKey identifies one (block, version) unit.
type unitKey struct {
	block, version int
}

// slots is one unit's entry of a decode's slot table. Strands are
// indexes into the decode's candidate list: primary holds each intra
// slot's first strand (-1 while the slot is unobserved), alts the
// strands that arrived behind a primary, in arrival order, at most
// maxAlternates per slot. primary is an array, so an entry is one
// allocation.
type slots struct {
	primary [layout.UnitMolecules]int32
	alts    []int32
	filled  int // slots holding a primary
	reads   int // sequencing reads behind the primaries
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
	// Step 3: reconstruct in descending cluster-size order, placing the
	// first strand per address and up to maxAlternates behind it.
	// Reconstruction of each cluster is pure, so batches of clusters
	// reconstruct in parallel and a serial sweep places them in the
	// exact cluster order, with the exact early stop. Without workers
	// a batch is one cluster. A whole-read decode (target < 0) never
	// stops early, so it reconstructs everything in one batch; a
	// single-block decode usually stops after the first few size-ordered
	// clusters, so small batches bound the reconstruction work wasted
	// beyond the stop.
	n := layout.UnitMolecules
	var cands []strandCandidate
	if target < 0 {
		// A whole-lane decode places every cluster that reconstructs,
		// so the list is sized once instead of grown by doubling.
		cands = make([]strandCandidate, 0, len(clusters))
	}
	table := make(map[unitKey]*slots)
	clustersUsed := 0
	// open counts the target's observed units with an empty slot; the
	// target is complete when a placement leaves none.
	open, done := 0, false
	place := func(cand strandCandidate) {
		clustersUsed++
		k := unitKey{cand.block, cand.version}
		s := table[k]
		if s == nil {
			s = new(slots)
			for i := range s.primary {
				s.primary[i] = -1
			}
			table[k] = s
			if k.block == target {
				open++
			}
		}
		if s.primary[cand.intra] >= 0 {
			if s.alternates(cands, cand.intra) < maxAlternates {
				s.alts = append(s.alts, int32(len(cands)))
				cands = append(cands, cand)
			}
			return
		}
		s.primary[cand.intra] = int32(len(cands))
		cands = append(cands, cand)
		s.reads += cand.clusterSize
		if s.filled++; s.filled == n && k.block == target {
			open--
		}
		done = k.block == target && open == 0
	}
	batch := 1
	if p.workers > 1 && len(clusters) > 1 {
		batch = len(clusters)
		if target >= 0 {
			batch = 4 * p.workers
		}
	}
	pre := make([]reconstructed, min(batch, len(clusters)))
	start := 0
	// parallel.Run names no worker, so each task takes a workspace from
	// the free list and returns it.
	reconstructOne := func(i int) error {
		ws := getWorkspace()
		pre[i].cand, pre[i].ok = p.reconstructCluster(ws, kept, clusters[start+i])
		workspaces.Put(ws)
		return nil
	}
	for ; start < len(clusters) && !done; start += batch {
		end := min(start+batch, len(clusters))
		parallel.Run(p.workers, end-start, reconstructOne)
		for _, r := range pre[:end-start] {
			if done {
				break
			}
			if r.ok {
				place(r.cand)
			}
		}
	}
	// Step 4: RS-decode each unit, with candidate recursion on failure.
	// Units decode independently off the now-frozen slot table, so they
	// fan out.
	var keys []unitKey
	for k := range table {
		if target < 0 || k.block == target {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].block != keys[j].block {
			return keys[i].block < keys[j].block
		}
		return keys[i].version < keys[j].version
	})
	units := make([]Unit, len(keys))
	parallel.Run(p.workers, len(keys), func(i int) error {
		units[i] = p.decodeUnit(cands, table[keys[i]], keys[i])
		return nil
	})
	results := make(map[int]*BlockResult)
	class, recovered := error(ErrDecode), 0
	for i, k := range keys {
		res := results[k.block]
		if res == nil {
			res = &BlockResult{Block: k.block, Units: make(map[int]Unit), ClustersUsed: clustersUsed}
			results[k.block] = res
		}
		// A failed unit stays visible with its typed error instead of
		// vanishing: graceful degradation needs the distinction between
		// "never written" and "written but unrecoverable".
		res.Units[k.version] = units[i]
		if units[i].Err != nil {
			class = worse(class, units[i].Err)
		} else {
			recovered++
		}
	}
	if recovered == 0 {
		return results, fmt.Errorf("%w: no unit decoded", class)
	}
	return results, nil
}

// alternates counts the alternates already kept behind slot intra.
func (s *slots) alternates(cands []strandCandidate, intra int) int {
	c := 0
	for _, a := range s.alts {
		if cands[a].intra == intra {
			c++
		}
	}
	return c
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

// decodeUnit attempts the RS decode of one unit from its slot-table
// entry s over the candidate list cands. On failure it retries with
// alternate candidates (Section 8.1's "recursively try to decode the
// original data using each of these candidates"), then erases the
// contested slots (the ones that had competing candidates), and finally
// treats the lowest-confidence slots (smallest clusters, whose
// consensus is least reliable) as erasures.
func (p *Pipeline) decodeUnit(cands []strandCandidate, s *slots, k unitKey) Unit {
	n := len(s.primary)
	u := Unit{Missing: n - s.filled, Reads: s.reads}
	// budget is the erasures one attempt may spend: the RS parity, less
	// the check symbol an unsealed codec keeps to reject wrong codewords.
	budget := p.unit.MaxErasures()
	if u.Missing > budget {
		// More slots lost than an attempt can erase: no candidate
		// substitution or erasure schedule can succeed (alternates only
		// exist for observed slots), so fail fast with the coverage
		// classification.
		u.Err = fmt.Errorf("%w: block %d version %d: %d of %d slots missing",
			ErrInsufficientCoverage, k.block, k.version, u.Missing, n)
		return u
	}
	payloads := make([][]byte, n)
	filled := make([]int32, 0, s.filled)
	for intra, c := range s.primary {
		if c >= 0 {
			payloads[intra] = cands[c].payload
			filled = append(filled, c)
		}
	}
	// try decodes one slot assignment with erased slots nil, and on
	// success records the unit's data; a seal mismatch is one more
	// failed attempt.
	try := func(pl [][]byte, erased int) bool {
		out, corr, err := p.unit.Decode(k.block, k.version, pl)
		if err != nil {
			return false
		}
		u.Data, u.Corrected, u.Erased = out, corr, erased
		return true
	}
	if try(payloads, 0) {
		return u
	}
	// Candidate recursion: substitute alternates one slot at a time, in
	// slot order, bounded by maxCombinations.
	pl := make([][]byte, n)
	combos := 0
	for intra := range n {
		for _, a := range s.alts {
			if cands[a].intra != intra {
				continue
			}
			if combos >= maxCombinations {
				break
			}
			combos++
			copy(pl, payloads)
			pl[intra] = cands[a].payload
			if try(pl, 0) {
				return u
			}
		}
	}
	// Erase the contested slots and let the RS erasure capability fill
	// them in. Observed payloads are never nil, so a nil entry marks a
	// slot already erased.
	copy(pl, payloads)
	contested := 0
	for _, a := range s.alts {
		if intra := cands[a].intra; pl[intra] != nil {
			pl[intra] = nil
			contested++
		}
	}
	if contested > 0 && u.Missing+contested <= budget {
		combos++
		if try(pl, contested) {
			return u
		}
	}
	// Last resort for low-coverage retrievals: the consensus of a 1- or
	// 2-read cluster is the least trustworthy, so progressively erase
	// the smallest-cluster slots within the remaining erasure budget.
	sort.Slice(filled, func(i, j int) bool { return cands[filled[i]].clusterSize < cands[filled[j]].clusterSize })
	for e := 1; e <= budget-u.Missing && e <= len(filled) && combos < maxCombinations; e++ {
		copy(pl, payloads)
		for _, c := range filled[:e] {
			pl[cands[c].intra] = nil
		}
		combos++
		if try(pl, e) {
			return u
		}
	}
	// Every slot was observed (or within erasure budget) yet every
	// attempt failed: the strands themselves are beyond the code's
	// correction margin.
	u.Err = fmt.Errorf("%w: block %d version %d", ErrRSMarginExceeded, k.block, k.version)
	return u
}
