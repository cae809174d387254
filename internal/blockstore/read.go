package blockstore

import (
	"errors"
	"fmt"
	"math"

	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/parallel"
	"dnastore/internal/pcr"
	"dnastore/internal/rng"
	"dnastore/internal/streamdecode"
	"dnastore/internal/update"
)

// The store has one read engine. Every access is the paper's four steps
// — a primer-selected PCR, sequencing, decode, assembly — and only the
// primer changes: a block read uses the block's fully elongated primer,
// a range read one prefix-cover primer per cover (Section 4), and a
// whole-partition read the main primer. A serial front-end plans the
// access (validation, primer and wear charging, one noise source forked
// per reaction in deterministic order), the reactions fan across the
// store's workers, and assembly turns every block's decode result into
// content plus a Health report. Read's mode picks what happens next:
// strict reads stop at the first failed report, health reads return
// them all, and supervised reads loop a retry policy around the same
// per-reaction function (supervise.go).

// wetMode selects one reaction's sequencing protocol and, for a
// streamed reaction, the coverage floors it stops at.
type wetMode int

const (
	// wetBatch sequences the full (fault-truncated) budget up front.
	wetBatch wetMode = iota
	// wetStream is a content read (ReadStrict, an overflow-chain
	// chase): the floor-stopped stream climbs the ContentLadder
	// (ContentFloor, then DefaultFloor, 12, 24, …) with the erasure
	// slack, since only the decoded content, checked by the unit seal,
	// is returned.
	wetStream
	// wetNoSlack is an evidence read (health, supervised and scrub
	// reactions): the stream climbs the EvidenceLadder (DefaultFloor,
	// 12, 24, …), whose first stop has the coverage health reports are
	// calibrated on, and a block reaction streams with zero slack, so
	// slot-level evidence is never forged by an early stop.
	// Multi-target reactions keep the slack.
	wetNoSlack
)

// reaction is one planned primer-selected PCR → sequencing → decode.
type reaction struct {
	prefix dna.Seq // index prefix elongating the forward primer
	root   bool    // main primer alone, no prefix
	// block is the lone target of a block reaction, -1 for covers and
	// the root; the reaction is authoritative for blocks [lo, hi].
	block, lo, hi int
	units         int         // encoding units the read budget provisions for
	src           *rng.Source // the reaction's private noise
}

// readPlan is the output of an access's serial front-end.
type readPlan struct {
	reactions []reaction
	// assembleSrc draws the overflow-chain retrievals of a multi-block
	// access, assembled serially over the data blocks of [lo, hi] once
	// every reaction has run. Block accesses leave it nil: each block is
	// assembled in its own fan slot with its reaction's noise.
	assembleSrc *rng.Source
	lo, hi      int
	scale       float64 // sequencing budget multiplier
}

// wetInfo is the operational evidence one reaction leaves behind for
// failure classification: a PCR gain near 1 is a failed reaction, a
// truncated delivery ceiling an aborted sequencing run (on both
// protocols: a stream draws its ceiling before the first read, so its
// adaptive early stop never looks like an abort), and a large foreign
// mass fraction (known only when the quarantine screen ran)
// contamination.
type wetInfo struct {
	gain        float64 // PCR mass amplification (final / initial)
	budget      int     // sequencing reads budgeted
	delivered   int     // sequencing reads actually delivered
	truncated   bool    // injected abort cut delivery below the budget
	quarantined int     // foreign species mass-zeroed by the screen
	foreignFrac float64 // fraction of amplified mass the screen removed
	covAvg      float64 // streamed reactions: mean per-slot coverage over the targets
	entries     int     // streamed reactions: pore entries (sequenced + ejected)
}

// blockReaction builds the fully elongated-primer reaction of one block.
func (p *Partition) blockReaction(block, units int, src *rng.Source) (reaction, error) {
	idx, err := p.tree.Encode(block)
	if err != nil {
		return reaction{}, err
	}
	return reaction{prefix: idx, block: block, lo: block, hi: block, units: units, src: src}, nil
}

// planBlocks is the serial front-end of a block access: validate every
// block before anything is charged, so a rejected request is free;
// charge each block's elongated primer — and, with chase set, the
// overflow chain assembly will retrieve — fork one noise source per
// reaction in request order, and charge the wear of every access.
// Scrub probes and repair reads do not assemble and pass chase false;
// with chase set the access serves user content, so an overflow log
// block, which holds patches, is refused like an unwritten one.
func (p *Partition) planBlocks(blocks []int, chase bool) (readPlan, error) {
	for _, b := range blocks {
		if err := p.checkBlock(b); err != nil {
			return readPlan{}, err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range blocks {
		if r := p.blocks[b]; !r.written || chase && r.log {
			return readPlan{}, fmt.Errorf("%w: block %d", ErrBlockNotFound, b)
		}
	}
	pl := readPlan{reactions: make([]reaction, len(blocks)), scale: 1}
	accesses := 0
	for i, b := range blocks {
		p.chargeElongated(blockPrimerKey(b))
		accesses++
		if chase {
			accesses += p.chargeOverflow(b)
		}
		rx, err := p.blockReaction(b, 1+p.blocks[b].versions, p.noise.Fork())
		if err != nil {
			return readPlan{}, err
		}
		pl.reactions[i] = rx
	}
	p.store.wear(accesses)
	return pl, nil
}

// planCovers is the serial front-end of a multi-block access: it drops
// covers with no written blocks before any wet work is charged, charges
// the overflow chains assembly will chase, routes each remaining
// cover's partially elongated primer through the cache, and forks the
// reaction noise sources in cover order, then one for assembly. nil
// covers plans the root: one main-primer reaction over the written
// span, whose own noise source also draws assembly's retrievals.
func (p *Partition) planCovers(covers []indextree.CoverRange) readPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	root := covers == nil
	if root {
		lo, hi := p.Blocks(), -1
		for b := range p.blocks {
			lo, hi = min(lo, b), max(hi, b)
		}
		if hi < 0 {
			return readPlan{}
		}
		covers = []indextree.CoverRange{{Lo: lo, Hi: hi}}
	}
	pl := readPlan{lo: covers[0].Lo, hi: covers[len(covers)-1].Hi, scale: 1}
	accesses := 0
	for _, c := range covers {
		units := 0
		for b := c.Lo; b <= c.Hi; b++ {
			r := p.blocks[b]
			if !r.written {
				continue
			}
			units += 1 + r.versions
			if !r.log {
				accesses += p.chargeOverflow(b)
			}
		}
		if units == 0 {
			continue // no primer synthesis, no PCR, no sequencing
		}
		if !root {
			p.chargeElongated(coverPrimerKey(c.Prefix))
		}
		accesses++
		pl.reactions = append(pl.reactions, reaction{
			prefix: c.Prefix, root: root, block: -1, lo: c.Lo, hi: c.Hi, units: units, src: p.noise.Fork(),
		})
	}
	if root {
		pl.assembleSrc = pl.reactions[0].src
	} else {
		pl.assembleSrc = p.noise.Fork()
	}
	p.store.wear(accesses)
	return pl
}

// planRange validates [lo, hi] and plans its minimal prefix cover.
func (p *Partition) planRange(lo, hi int) (readPlan, error) {
	if err := p.checkBlock(lo); err != nil {
		return readPlan{}, err
	}
	if err := p.checkBlock(hi); err != nil {
		return readPlan{}, err
	}
	if lo > hi {
		return readPlan{}, fmt.Errorf("%w: inverted range [%d, %d]", ErrBlockRange, lo, hi)
	}
	covers, err := p.tree.Cover(lo, hi)
	if err != nil {
		return readPlan{}, err
	}
	return p.planCovers(covers), nil
}

// fanWorkers is the internal PCR scoring fan-out of each of n reactions
// fanned across the store's workers: a lone reaction gets the full
// budget; fanned ones score serially rather than nest two full-width
// fork-joins. Results are byte-identical either way.
func (p *Partition) fanWorkers(n int) int {
	if n > 1 && p.workers > 1 {
		return 1
	}
	return p.store.cfg.Workers
}

// react runs one reaction: PCR with the reaction's primer (fault hooks
// included; screen enables the contamination quarantine, supervised
// retries only), sequencing with the budget multiplied by scale, and
// decode with pcrWorkers internal fan-out; an unrepresentable scaled
// budget refuses the reaction before any wet work. streams picks the
// sequencing protocol; the streaming engine decodes either way. Only
// results for the reaction's own interval are returned — carryover
// reads give other blocks fragmentary coverage whose single-read
// consensus would overwrite good results from their own reaction —
// even on a failed decode, whose partial map carries the typed
// per-block failures. The amplified pool lives only as long as the
// reaction: it is released when react returns, so the next reaction's
// PCR reuses the storage it wrote.
func (p *Partition) react(rx reaction, pcrWorkers int, wet wetMode, scale float64, screen bool) (map[int]*decode.BlockResult, wetInfo, error) {
	var info wetInfo
	budget, err := scaledBudget(p.store.ReadBudget(rx.units), scale)
	if err != nil {
		return nil, info, err
	}
	primers := []pcr.Primer{{Fwd: p.fwd, Rev: p.rev, Conc: 1}}
	if !rx.root {
		primers[0].Fwd = p.store.cfg.Geometry.ElongatedPrimer(p.fwd, rx.prefix)
		if c := p.store.cfg.CarryoverConc; c > 0 {
			primers = append(primers, pcr.Primer{Fwd: p.fwd, Rev: p.rev, Conc: c})
		}
	}
	amplified, st, rep, err := p.store.runPCR(rx.src, primers, pcrWorkers, screen)
	if err != nil {
		return nil, info, err
	}
	defer amplified.Release()
	info.gain = st.Gain()
	info.quarantined, info.foreignFrac = rep.quarantined, rep.foreignFrac
	info.budget = budget
	// Both protocols draw the injected delivery ceiling before the
	// first read, so a stream's adaptive early stop never looks like an
	// abort.
	ceiling := p.store.faultBudget(rx.src, budget)
	info.truncated = ceiling < budget
	var decoded map[int]*decode.BlockResult
	if p.streams(wet, scale, info.gain) {
		decoded, err = p.streamTargets(rx, amplified, ceiling, wet, &info)
	} else {
		info.delivered = ceiling
		var seqs []dna.Seq
		if seqs, err = p.store.sequence(rx.src, amplified, ceiling); err != nil {
			return nil, info, err
		}
		decoded, err = streamdecode.Decode(p.pipeline, seqs, rx.block)
	}
	results := make(map[int]*decode.BlockResult, len(decoded))
	for b, got := range decoded {
		if got != nil && b >= rx.lo && b <= rx.hi {
			results[b] = got
		}
	}
	return results, info, err
}

// read runs a planned access and assembles every block into content
// and a Health report. With strict set (ReadStrict) the access stops
// at the first failed report and returns its error; otherwise wet
// failures land in the reports and leave the content slot nil.
func (p *Partition) read(pl readPlan, strict bool) ([][]byte, []Health, error) {
	wet := wetNoSlack
	if strict {
		wet = wetStream
	}
	n := len(pl.reactions)
	pcrWorkers := p.fanWorkers(n)
	perBlock := pl.assembleSrc == nil
	out, health := make([][]byte, n), make([]Health, n)
	perReaction := make([]map[int]*decode.BlockResult, n)
	err := parallel.Run(p.workers, n, func(i int) error {
		rx := pl.reactions[i]
		results, info, err := p.react(rx, pcrWorkers, wet, pl.scale, false)
		switch {
		case perBlock:
			out[i], health[i], err = p.assemble(rx.src, rx.block, results[rx.block], err, info, pcrWorkers)
		case err != nil && !errors.Is(err, decode.ErrDecode):
			return err // infrastructure failures abort every read
		default:
			// A failed cover decode leaves partial per-block results
			// whose typed failures assembly reports.
			perReaction[i] = results
		}
		if strict {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if perBlock {
		return out, health, nil
	}
	merged := make(map[int]*decode.BlockResult)
	for _, m := range perReaction {
		for b, res := range m {
			merged[b] = res
		}
	}
	// Snapshot the data blocks; assembly runs reactions outside the lock.
	p.mu.Lock()
	var wanted []int
	for b := pl.lo; b <= pl.hi; b++ {
		if r := p.blocks[b]; r.written && !r.log {
			wanted = append(wanted, b)
		}
	}
	p.mu.Unlock()
	out, health = make([][]byte, len(wanted)), make([]Health, len(wanted))
	for i, b := range wanted {
		out[i], health[i], err = p.assemble(pl.assembleSrc, b, merged[b], nil, wetInfo{}, p.store.cfg.Workers)
		if strict && err != nil {
			return nil, nil, err
		}
	}
	return out, health, nil
}

// assemble turns one block's decode result into its current content
// and Health report. err is the reaction's own failure; without one the
// original version and its patches are resolved, chasing the overflow
// chain with reactions drawn from r. Content is returned only for a
// recovered block — a physically expected unit that failed to decode
// would otherwise leave it silently missing a patch — and the error is
// the access's own, or the report's when the access itself succeeded.
func (p *Partition) assemble(r *rng.Source, block int, res *decode.BlockResult, err error, info wetInfo, pcrWorkers int) ([]byte, Health, error) {
	var content []byte
	if err == nil {
		var data []byte
		var patches []update.Patch
		if data, patches, err = p.resolve(r, block, res, pcrWorkers); err == nil {
			content, err = update.ApplyAll(data, patches)
		}
	}
	h := p.classifyHealth(block, res, err, info)
	if !h.Recovered {
		if err == nil {
			err = h.Err
		}
		return nil, h, err
	}
	return content, h, nil
}

// resolve extracts a block's original data and ordered patches from its
// decode result, chasing the overflow chain with reactions drawn from r.
// A missing original version fails with the unit's own recorded error,
// or a coverage error when no strand of it was ever observed.
func (p *Partition) resolve(r *rng.Source, block int, res *decode.BlockResult, pcrWorkers int) ([]byte, []update.Patch, error) {
	if res == nil {
		return nil, nil, fmt.Errorf("%w: block %d not recovered", decode.ErrInsufficientCoverage, block)
	}
	orig := res.Units[0]
	if orig.Data == nil {
		cause := orig.Err
		if cause == nil {
			cause = decode.ErrInsufficientCoverage
		}
		return nil, nil, fmt.Errorf("%w: block %d original version missing", cause, block)
	}
	p.mu.Lock()
	hops := len(p.overflowChain(block))
	p.mu.Unlock()
	patches, err := p.collectPatches(r, res, 1, hops, pcrWorkers)
	if err != nil {
		return nil, nil, err
	}
	return orig.Data[:p.BlockSize()], patches, nil
}

// collectPatches extracts the patches of versions first and up, in
// order (log blocks hold a patch in version 0 too), following overflow
// pointers with block reactions drawn from r. hops is the number of log
// blocks the partition's block table records below this one: a
// pointer past them is a decode failure.
func (p *Partition) collectPatches(r *rng.Source, res *decode.BlockResult, first, hops, pcrWorkers int) ([]update.Patch, error) {
	var out []update.Patch
	for v := first; v < p.store.cfg.Geometry.MaxVersions(); v++ {
		data := res.Units[v].Data
		if data == nil {
			continue
		}
		log, isPtr := update.IsOverflow(data)
		if !isPtr {
			patch, err := update.Unmarshal(data)
			if err != nil {
				return nil, err
			}
			out = append(out, patch)
			continue
		}
		if hops <= 0 {
			return nil, fmt.Errorf("%w: block %d points past its overflow chain", decode.ErrDecode, res.Block)
		}
		logRes, err := p.chase(r, log, pcrWorkers)
		if err != nil {
			return nil, fmt.Errorf("blockstore: overflow chain: %w", err)
		}
		chain, err := p.collectPatches(r, logRes, 0, hops-1, pcrWorkers)
		if err != nil {
			return nil, err
		}
		out = append(out, chain...)
	}
	return out, nil
}

// chase retrieves one overflow log block. The access's front-end has
// already charged its primer and wear, so the retrieval touches no
// shared cache state and is safe inside parallel decode work. It is a
// content read whatever the access's mode: it streams on the content
// ladder, and a log block missing a written version would drop
// patches, so it fails.
func (p *Partition) chase(r *rng.Source, log, pcrWorkers int) (*decode.BlockResult, error) {
	rx, err := p.blockReaction(log, 4, r)
	if err != nil {
		return nil, err
	}
	results, _, err := p.react(rx, pcrWorkers, wetStream, 1, false)
	if err != nil {
		return nil, err
	}
	if !servesExpected(results[log], p.expectedVersions(log)) {
		return nil, fmt.Errorf("%w: log block %d missing a written version", decode.ErrInsufficientCoverage, log)
	}
	return results[log], nil
}

// ReadMode selects what a read does with the per-block Health reports
// every access builds.
type ReadMode int

const (
	// ReadStrict aborts the access with the first failed block's error
	// (a missing patch included); reactions stream with erasure slack
	// on the content ladder, first stopping at ContentFloor reads per
	// slot and escalating only when the unit does not decode there.
	ReadStrict ReadMode = iota
	// ReadHealth leaves failed blocks' content nil, their typed failure
	// in Health.Err; the error covers only digital failures. Reactions
	// stream on the evidence ladder, first stopping at DefaultFloor, and
	// block reactions with zero slack, so no early stop forges health.
	ReadHealth
	// ReadSupervised is ReadHealth plus the store's retry policy, which
	// re-reads failed blocks (supervise); blocks exhausting it stay nil.
	ReadSupervised
)

// Span is an inclusive block interval [Lo, Hi].
type Span struct{ Lo, Hi int }

// ReadRequest names one access: at most one target, a mode, and a
// sequencing depth. A request naming no target reads no blocks.
type ReadRequest struct {
	// Blocks reads these written blocks in request order, one fully
	// elongated-primer reaction each. An unwritten block or an
	// overflow log block, which holds patches rather than content, is
	// refused with ErrBlockNotFound before anything is charged.
	Blocks []int
	// Range reads the written data blocks of [Lo, Hi] in block order,
	// one partially elongated primer per minimal prefix cover.
	Range *Span
	// All reads every written data block with the main primer alone.
	All  bool
	Mode ReadMode
	// Scale multiplies a block read's sequencing depth; 0 means 1. A
	// scale leaving no representable budget is refused with
	// ErrDepthScale, and any scale but 1 on a Range or All read with
	// ErrReadRequest, before anything is charged.
	Scale float64
}

// ReadResult is one access's outcome: Content[i] and Health[i] belong
// to block Health[i].Block, Content[i] nil where it was not recovered.
// Recovery is set by ReadSupervised reads only.
type ReadResult struct {
	Content  [][]byte
	Health   []Health
	Recovery *RecoveryReport
}

// Read is the store's one read call: it plans the request's reactions,
// runs them, and assembles every block's content and Health report,
// handled as req.Mode says. Outputs are byte-identical at any worker
// count, and a block read equals reading its blocks one by one.
func (p *Partition) Read(req ReadRequest) (ReadResult, error) {
	pl, err := p.plan(req)
	if err != nil {
		return ReadResult{}, err
	}
	var res ReadResult
	if res.Content, res.Health, err = p.read(pl, req.Mode == ReadStrict); err != nil {
		return ReadResult{}, err
	}
	if req.Mode == ReadSupervised {
		res.Recovery = p.supervise(res.Content, res.Health, pl.scale)
	}
	return res, nil
}

// plan validates a request and runs its serial front-end. Request and
// depth-scale rejections happen before anything is charged.
func (p *Partition) plan(req ReadRequest) (readPlan, error) {
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	multi := req.Range != nil || req.All
	switch {
	case req.Range != nil && req.All, multi && len(req.Blocks) > 0:
		return readPlan{}, fmt.Errorf("%w: more than one target", ErrReadRequest)
	case req.Mode < ReadStrict || req.Mode > ReadSupervised:
		return readPlan{}, fmt.Errorf("%w: mode %d", ErrReadRequest, req.Mode)
	case multi && scale != 1:
		return readPlan{}, fmt.Errorf("%w: depth scale %g on a multi-block read", ErrReadRequest, scale)
	case req.Range != nil:
		return p.planRange(req.Range.Lo, req.Range.Hi)
	case req.All:
		pl := p.planCovers(nil)
		if len(pl.reactions) == 0 {
			return readPlan{}, ErrBlockNotFound
		}
		return pl, nil
	}
	for _, b := range req.Blocks {
		if _, err := scaledBudget(p.store.ReadBudget(1+p.Versions(b)), scale); err != nil {
			return readPlan{}, err
		}
	}
	pl, err := p.planBlocks(req.Blocks, true)
	pl.scale = scale
	return pl, err
}

// ReadBlock reads one block strictly and returns its current content
// with all updates applied; the length may differ from BlockSize when
// patches changed the data size. Kept beside Read because the
// point-access benchmark workloads call it.
func (p *Partition) ReadBlock(block int) ([]byte, error) {
	res, err := p.Read(ReadRequest{Blocks: []int{block}})
	if err != nil {
		return nil, err
	}
	return res.Content[0], nil
}

// ReadRange reads the written data blocks of [lo, hi] strictly, with
// prefix-cover primers. Kept beside Read because the range-scan
// benchmark workload calls it.
func (p *Partition) ReadRange(lo, hi int) ([][]byte, error) {
	res, err := p.Read(ReadRequest{Range: &Span{Lo: lo, Hi: hi}})
	return res.Content, err
}

// ReadBlocksSupervised is a ReadSupervised block read. Kept beside Read
// because the aged-faulty benchmark workload calls it.
func (p *Partition) ReadBlocksSupervised(blocks []int) ([][]byte, []Health, *RecoveryReport, error) {
	res, err := p.Read(ReadRequest{Blocks: blocks, Mode: ReadSupervised})
	return res.Content, res.Health, res.Recovery, err
}

// scaledBudget multiplies a reaction's read budget by a depth scale,
// rounding to the nearest read with a floor of one. A scale that is not
// positive, or that leaves the scaled budget non-finite or at least
// 2^63, is refused with ErrDepthScale: converting such a product to int
// wraps, and the "escalated" read would sequence a single read.
func scaledBudget(budget int, scale float64) (int, error) {
	if scale == 1 {
		return budget, nil
	}
	scaled := float64(budget)*scale + 0.5
	if !(scale > 0) || !(scaled < math.MaxInt64) {
		return 0, fmt.Errorf("%w: %g", ErrDepthScale, scale)
	}
	return max(int(scaled), 1), nil
}

// BlockVersions holds the decoded raw units of one block retrieval.
type BlockVersions struct {
	// Data is the original (version 0) unit payload, BlockSize bytes.
	Data []byte
	// Patches are the update patches in application order, with any
	// overflow chain already resolved.
	Patches []update.Patch
	// ClustersUsed is how many clusters the decode consumed before the
	// block's observed versions completed.
	ClustersUsed int
}

// DecodeReads decodes externally produced reads with the full-budget
// protocol (e.g. the Section 8 experiment decoding a 225-read sample),
// skipping the store's own PCR and sequencing; only the overflow-chain
// retrievals touch the tube.
func (p *Partition) DecodeReads(seqs []dna.Seq, block int) (*BlockVersions, error) {
	if err := p.checkBlock(block); err != nil {
		return nil, err
	}
	decoded, err := streamdecode.Decode(p.pipeline, seqs, block)
	if err != nil {
		return nil, err
	}
	res := decoded[block]
	p.mu.Lock()
	hops := p.chargeOverflow(block)
	r := p.noise.Fork()
	p.store.wear(hops)
	p.mu.Unlock()
	data, patches, err := p.resolve(r, block, res, p.store.cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &BlockVersions{Data: data, Patches: patches, ClustersUsed: res.ClustersUsed}, nil
}
