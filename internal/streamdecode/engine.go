// Package streamdecode is the one decode engine: reads pass through
// primer filtering, greedy cluster assignment, and coverage accounting
// as they arrive, and a finalize hands the clusters to
// decode.DecodeClusters. It serves two sequencing protocols: the
// floor-stopped stream, fed in chunks and stopped once every target's
// coverage floor is met, and the full budget (Decode), the whole read
// set fed at once with no floor. The single-shard engine's assignments
// are byte-identical to the reference clusterer's (cluster.Group, the
// differential test oracle) on the same read sequence — both use the
// same sketch primitives (MinHash signatures, LSH candidate index,
// epoch-deduplicated scan, staged bit-parallel membership probe) and
// consume reads in the same order — so a stream stopped at the floor
// decodes the same content from a prefix of the reads.
//
// With shards > 1 the assignment state is partitioned by provisional
// block address (cluster.ShardOf): each shard runs the same greedy
// leader loop over the reads routed to it, in input order, with its own
// sketch index — so membership probes only ever see candidates from
// blocks in the same shard, and the shards fan across workers. Reads
// whose address fails to parse (a decayed index, a well-primed chimera)
// fall back to a residue shard that clusters on its own and joins every
// block's finalize. Per block, the sharded clusters equal cluster.Group
// run over that shard's reads; reads of different blocks land in
// different clusters either way (MaxDist is far below the distance
// between distinct strands), so the decoded content is identical.
//
// The flow per sequencing chunk:
//
//	Add(batch, admit) stage A: primer filter + packing + signatures +
//	                  address parse, fanned across workers; coverage
//	                  credit in input order, cut before the first read
//	                  admit refuses; stage B: greedy assignment of the
//	                  prefix, one worker per shard.
//	Done(block)       has every expected slot met the per-slot floor?
//	FinalizeBlock     hand the accumulated clusters to decode.DecodeClusters.
//
// Chunks only amortize the stages' fork-join; they do not bound how far
// a stream overshoots its floor. Coverage is credited read by read and
// the per-target floor counts move with it, so admit can stop a chunk
// on the read that completes a floor, and the engine then holds exactly
// what one Add per read would hold.
//
// Finalization runs on demand, on the caller. A target's finalize
// decodes its shard's lane set — the shard plus the residue shard — in
// one pass over every block visible there, and Finalize decodes each
// lane set that holds a target once and splits the result per target.
// A target therefore decodes the same bytes alone or with its
// shard-mates, and escalation needs no bookkeeping: the next finalize
// sees every read added since the last.
//
// Kept reads are retained 2-bit packed in one arena (a quarter of the
// Seq footprint — the difference between holding 10^6–10^7 kept reads
// and not), with signatures computed directly over the packed spans;
// reads are unpacked only when a finalize materializes a lane set.
package streamdecode

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"dnastore/internal/cluster"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/layout"
	"dnastore/internal/parallel"
	"dnastore/internal/recycle"
	"dnastore/internal/sketch"
)

// DefaultFloor is the per-slot coverage floor: sequencing of a target
// may stop once every expected strand slot has this many reads behind
// it. Trace reconstruction over independent noisy copies converges with
// a small constant number of traces per strand (Heckel et al.'s coverage
// regime; the pipeline's refinement consensus engages at 3 reads), so a
// floor a little above that decodes reliably while consuming a fraction
// of the full budget, which provisions CoverageDepth×WasteFactor reads
// per molecule up front. The floor is a heuristic, not a guarantee: a
// decode that still fails escalates toward the full budget.
const DefaultFloor = 6

// span locates one kept read inside the packed arena.
type span struct {
	off, n int
}

// slotAddr is one read's provisional strand address. Every kept read is
// parsed individually (in the parallel stage, where the primer position
// is being computed anyway): crediting coverage through a once-parsed
// cluster representative would let a single mis-parsed founder silence
// its whole slot, stalling the floor for the entire reaction.
type slotAddr struct {
	block, version, intra int
	ok                    bool
}

// slotKey indexes per-slot coverage counts.
type slotKey struct {
	block, version, intra int
}

// floorState is one target's incremental floor accounting: per
// expected version, how many of its slots are still below the
// effective floor, and how many versions are short of more slots than
// the slack tolerates. bump keeps it current as each read is credited,
// so the stop test is O(1) per read instead of a walk over every slot.
type floorState struct {
	versions []int
	short    []int
	over     int
}

// met reports whether every expected version is within the slack. A
// target registered with no versions is never met.
func (f *floorState) met() bool { return len(f.versions) > 0 && f.over == 0 }

// lane is one shard of greedy-assignment state: its own sketch index,
// member lists (global kept-read indices, in arrival order), compiled
// representatives, and founder indices for the cross-shard merge order.
// A reset lane keeps the storage of all of them: a cluster founded
// after it reuses the member list and the compiled tables of the
// cluster that held its number before.
type lane struct {
	index    *sketch.Index
	members  [][]int
	reps     []dna.Pattern
	founders []int
	maxDist  int

	// probe hot-path state: the closure is built once and reads the
	// current read and the distance through the fields, so Scan stays
	// allocation-free.
	probeRead dna.Seq
	probeFn   func(ci int) bool
}

func newLane() *lane {
	l := &lane{index: sketch.NewIndex()}
	l.probeFn = func(ci int) bool {
		return cluster.WithinDist(&l.reps[ci], l.probeRead, l.maxDist)
	}
	return l
}

// reset empties the lane, keeping its storage.
func (l *lane) reset() {
	l.index.Reset()
	l.members, l.reps, l.founders = l.members[:0], l.reps[:0], l.founders[:0]
	l.probeRead = nil
}

// assign joins the read to the first indexed cluster of this lane whose
// representative is within the cluster distance, or founds a new
// cluster — the exact decision procedure of cluster.Group over the
// lane's read subsequence.
func (l *lane) assign(read dna.Seq, ri int, sigs []uint64) {
	l.probeRead = read
	if joined := l.index.Scan(sigs, l.probeFn); joined >= 0 {
		l.members[joined] = append(l.members[joined], ri)
		return
	}
	l.index.Add(sigs)
	// Grow keeps the slots past the length: a reset lane's old member
	// list and compiled tables.
	ci := len(l.members)
	l.members = slices.Grow(l.members, 1)[:ci+1]
	l.members[ci] = append(l.members[ci][:0], ri)
	l.reps = slices.Grow(l.reps, 1)[:ci+1]
	l.reps[ci].Compile(read)
	l.founders = append(l.founders, ri)
}

// Stats is the engine's per-stage accounting, merged by callers into
// store-level streaming metrics.
type Stats struct {
	// Kept counts reads that passed the primer filter; Residue counts
	// the kept reads routed to the residue shard (failed address parse).
	Kept    int
	Residue int
	// StageASeconds covers the fanned per-read work: primer filter,
	// arena packing, packed-span signatures, provisional address parse.
	// StageBSeconds covers the sharded greedy assignment.
	StageASeconds float64
	StageBSeconds float64
	// FinalizeSeconds is total finalize compute. Every finalize runs on
	// the caller, so FinalizeWaitSeconds, the time callers waited on
	// it, equals it.
	FinalizeSeconds     float64
	FinalizeWaitSeconds float64
	// FinalizeJobs counts lane decodes: finalizes of a target's whole
	// shard (plus the residue shard).
	FinalizeJobs int
	// HandoffSeconds and FinalizeDiscarded are always 0: no finalize
	// cuts a snapshot or is abandoned. They stay only for the benchmark
	// harness's reads; ROADMAP item 1 deletes them together with those.
	HandoffSeconds    float64
	FinalizeDiscarded int
}

// Accumulate folds another engine's stats into this one — the store
// merges per-reaction engines into its streaming totals with it.
func (s *Stats) Accumulate(o Stats) {
	s.Kept += o.Kept
	s.Residue += o.Residue
	s.StageASeconds += o.StageASeconds
	s.StageBSeconds += o.StageBSeconds
	s.FinalizeSeconds += o.FinalizeSeconds
	s.FinalizeWaitSeconds += o.FinalizeWaitSeconds
	s.HandoffSeconds += o.HandoffSeconds
	s.FinalizeJobs += o.FinalizeJobs
	s.FinalizeDiscarded += o.FinalizeDiscarded
}

// Engine accumulates one reaction's read stream. It is not safe for
// concurrent use: parallel reactions each own an Engine, and the
// engine fans its own stage work across workers internally.
//
// The owner calls Release exactly once, after it has read all it needs
// (Stats, CoverageEstimate, the decodes); the next New may hand the
// same engine, storage and all, to another reaction. After Release
// the engine must not be used, and neither may the kept reads and
// clusters it materialized. The BlockResults it returned stay valid:
// they hold fresh copies. A second Release panics rather than list the
// engine twice, which would let two reactions share it.
type Engine struct {
	pipe    *decode.Pipeline
	signer  sketch.Signer
	maxDist int
	slack   int
	workers int
	shards  int

	// lanes[0:shards] are the address shards; with shards > 1 a final
	// residue lane at lanes[shards] holds the unparseable reads.
	lanes []*lane

	arena  []byte
	spans  []span
	bases  int      // total kept bases, sizing finalize slabs
	riLane []uint16 // per kept read, the lane it was assigned in

	cov      map[slotKey]int
	floors   map[int]*floorState // by Expect'd block
	pending  int                 // Expect'd blocks not yet Done
	targets  []int               // Expect'd blocks, ascending
	reopened map[int]int         // escalation rounds: effective floor is DefaultFloor << n

	stats Stats

	keepf    []bool
	sigs     []uint64
	offs     []int
	addrs    []slotAddr
	laneOf   []int
	riOf     []int
	localIdx []int32
	laneMask []bool

	// The per-stage task closures are built once (they read the chunk
	// through curBatch/curN) so a warm Add allocates nothing per read.
	curBatch        []dna.Seq
	curN            int
	fnA1, fnA2, fnB func(i int) error

	// materializeLanes' output storage, reused by every finalize.
	kept     []dna.Seq
	slab     dna.Seq
	refs     []clusterRef
	clusters [][]int
	flat     []int // the reindexed member lists of a partial lane set

	released bool
}

// engines holds released engines for the next New. Its entries are
// weak, so a collection frees every engine no reaction took back.
var engines recycle.List[Engine]

// DefaultShards is the shard count New substitutes for shards <= 0.
// It is a fixed constant, not the worker count, on purpose: the shard
// partition decides which clusters a block's finalize can see, so
// deriving it from workers would make decode results (and the health
// reports built on them) depend on the machine's parallelism. Eight
// shards cut cross-block membership probes by ~8x at the pool scales
// the engine targets while leaving every lane enough reads to amortize
// its index.
const DefaultShards = 8

// New builds an engine decoding into the pipeline's partition with the
// given number of assignment shards (plus the residue shard) and the
// DefaultFloor coverage floor. shards <= 0 selects DefaultShards;
// shards == 1 is the single-shard engine, whose assignments are
// bit-identical to cluster.Group on the kept read sequence. workers
// bounds the engine's internal fan-out (0 means 1, negative means
// GOMAXPROCS). New takes a released engine when there is one and
// binds it to the pipeline; a fresh engine and a reused one hold and
// return the same.
func New(pipe *decode.Pipeline, workers, shards int) (*Engine, error) {
	cfg := pipe.Config()
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	e := engines.Get()
	if e == nil {
		e = newEngine()
	}
	e.pipe = pipe
	e.signer = cfg.Cluster.Signer()
	e.maxDist = cfg.Cluster.MaxDist
	e.slack = (layout.UnitMolecules - layout.UnitDataMolecules) / 2
	e.workers = parallel.Resolve(workers)
	e.shards = shards
	e.released = false
	lanes := shards
	if shards > 1 {
		lanes++ // the residue shard
	}
	// A released engine keeps every lane it ever had, reset, past the
	// slice's length; Grow keeps them too.
	e.lanes = slices.Grow(e.lanes[:0], lanes)[:lanes]
	for i, l := range e.lanes {
		if l == nil {
			l = newLane()
			e.lanes[i] = l
		}
		l.maxDist = e.maxDist
	}
	return e, nil
}

// newEngine builds an empty engine with its per-stage task closures,
// which read everything they use, the signature count included,
// through the engine at call time: a reused engine may serve a
// pipeline with another signer.
func newEngine() *Engine {
	e := &Engine{
		cov:      make(map[slotKey]int),
		floors:   make(map[int]*floorState),
		reopened: make(map[int]int),
	}
	e.fnA1 = func(i int) error {
		e.keepf[i] = e.pipe.Keep(e.curBatch[i])
		return nil
	}
	e.fnA2 = func(i int) error {
		if e.offs[i] < 0 {
			return nil
		}
		read := e.curBatch[i]
		off := e.offs[i]
		nb := (len(read) + 3) / 4
		buf := dna.AppendPackedBytes(e.arena[off:off:off+nb], read)
		h := e.signer.NumHashes
		e.signer.IntoPacked(dna.PackedView(buf, len(read)), e.sigs[i*h:(i+1)*h])
		b, v, in, ok := e.pipe.ProvisionalAddress(read)
		e.addrs[i] = slotAddr{block: b, version: v, intra: in, ok: ok}
		return nil
	}
	e.fnB = func(li int) error {
		l := e.lanes[li]
		h := e.signer.NumHashes
		for i := 0; i < e.curN; i++ {
			if e.laneOf[i] != li {
				continue
			}
			l.assign(e.curBatch[i], e.riOf[i], e.sigs[i*h:(i+1)*h])
		}
		return nil
	}
	return e
}

// Release resets the engine and hands it, storage and all, to the next
// New, under the contract the Engine doc states.
func (e *Engine) Release() {
	if e.released {
		panic("streamdecode: engine released twice")
	}
	for _, l := range e.lanes {
		l.reset()
	}
	e.pipe = nil
	e.arena, e.spans, e.riLane = e.arena[:0], e.spans[:0], e.riLane[:0]
	e.bases, e.pending = 0, 0
	clear(e.cov)
	clear(e.floors)
	clear(e.reopened)
	e.targets = e.targets[:0]
	e.stats = Stats{}
	e.released = true
	engines.Put(e)
}

// SetSlack overrides the erasure slack the coverage floor tolerates.
// The default (half the unit's RS parity) optimizes read cost: the
// floor stops without waiting out the coupon-collector tail for the
// rarest strand species, letting the parity erase what is thin. Health
// probes set 0 — they exist to report slot-level state, so stopping
// while an expected slot is still unobserved would forge a missing
// slot on a healthy block.
func (e *Engine) SetSlack(n int) {
	if n < 0 {
		return
	}
	e.slack = n
	for _, b := range e.targets {
		e.refloor(b)
	}
}

// Stats returns the engine's accumulated per-stage accounting.
func (e *Engine) Stats() Stats { return e.stats }

// laneFor maps a block to its assignment shard.
func (e *Engine) laneFor(block int) int { return cluster.ShardOf(block, e.shards) }

// Expect registers a target block and the unit versions that physically
// exist for it; Done tracks the coverage floor over exactly these
// (version, intra) slots. Blocks never registered are non-targets:
// their reads still cluster, but they have no floor and IsTarget
// reports false for them.
func (e *Engine) Expect(block int, versions []int) {
	f := e.floors[block]
	if f == nil {
		at := sort.SearchInts(e.targets, block)
		e.targets = append(e.targets, 0)
		copy(e.targets[at+1:], e.targets[at:])
		e.targets[at] = block
		f = &floorState{}
		e.floors[block] = f
	}
	f.versions = append([]int(nil), versions...)
	f.short = make([]int, len(versions))
	e.refloor(block)
}

// refloor rebuilds a target's short-slot counts from the coverage
// counts — at registration, and whenever its floor or the slack moves —
// and recounts the pending targets.
func (e *Engine) refloor(block int) {
	f := e.floors[block]
	floor := e.effFloor(block)
	f.over = 0
	for k, v := range f.versions {
		short := 0
		for intra := 0; intra < layout.UnitMolecules; intra++ {
			if e.cov[slotKey{block, v, intra}] < floor {
				short++
			}
		}
		f.short[k] = short
		if short > e.slack {
			f.over++
		}
	}
	e.pending = 0
	for _, b := range e.targets {
		if !e.floors[b].met() {
			e.pending++
		}
	}
}

// IsTarget reports whether the block was registered via Expect.
func (e *Engine) IsTarget(block int) bool { return e.floors[block] != nil }

// Add streams one chunk of sequencer output into the engine and
// returns how many of its reads it consumed. Stage A — the per-read
// primer filter, arena packing, packed-span MinHash signatures, and
// provisional address parse — fans across the workers over the whole
// chunk. The reads are then credited to their slots in input order,
// and admit, asked before each read against the floor state the reads
// before it left, cuts the chunk before the first read it refuses: the
// engine keeps that prefix and forgets the rest, exactly as if the
// chunk had ended there. A nil admit consumes the whole chunk. Stage B
// assigns the prefix's kept reads to clusters shard by shard, each
// shard consuming its reads in input order, replicating cluster.Group's
// greedy assignment decision for decision within the shard.
func (e *Engine) Add(batch []dna.Seq, admit func(i int) bool) int {
	n := len(batch)
	if n == 0 {
		return 0
	}
	h := e.signer.NumHashes
	e.keepf = growBools(e.keepf, n)
	e.sigs = growUints(e.sigs, n*h)
	e.offs = growInts(e.offs, n)
	e.addrs = growAddrs(e.addrs, n)
	e.laneOf = growInts(e.laneOf, n)
	e.riOf = growInts(e.riOf, n)
	e.curBatch = batch
	tA := time.Now()
	// Stage A1: the primer filter dominates per-read cost (two
	// approximate alignments), so it fans out first.
	parallel.Run(e.workers, n, e.fnA1)
	// Reserve arena spans serially, in input order.
	total := len(e.arena)
	for i := 0; i < n; i++ {
		if !e.keepf[i] {
			e.offs[i] = -1
			continue
		}
		e.offs[i] = total
		total += (len(batch[i]) + 3) / 4
		e.riOf[i] = len(e.spans)
		e.spans = append(e.spans, span{off: e.offs[i], n: len(batch[i])})
		e.bases += len(batch[i])
	}
	if total > cap(e.arena) {
		next := 2 * cap(e.arena)
		if next < total {
			next = total
		}
		grown := make([]byte, len(e.arena), next)
		copy(grown, e.arena)
		e.arena = grown
	}
	e.arena = e.arena[:total]
	// Stage A2: pack each kept read into its span, sign the span, and
	// parse the read's own provisional address for coverage credit and
	// shard routing.
	parallel.Run(e.workers, n, e.fnA2)
	e.stats.StageASeconds += time.Since(tA).Seconds()
	tB := time.Now()
	// Coverage accounting, serial and in input order, so admit sees the
	// floors exactly as a one-read Add per read would have left them.
	cut := n
	for i := 0; i < n; i++ {
		if admit != nil && !admit(i) {
			cut = i
			break
		}
		if e.offs[i] >= 0 && e.addrs[i].ok {
			e.bump(e.addrs[i])
		}
	}
	// Forget the kept reads past the cut: their spans are the arena's
	// tail, so trimming back to each in turn ends at the first.
	for i := n - 1; i >= cut; i-- {
		if e.offs[i] >= 0 {
			e.spans, e.arena = e.spans[:e.riOf[i]], e.arena[:e.offs[i]]
			e.bases -= len(batch[i])
		}
	}
	// Route each kept read to its shard (serial: appends riLane in
	// input order).
	residue := e.shards // one past the address shards
	for i := 0; i < cut; i++ {
		if e.offs[i] < 0 {
			e.laneOf[i] = -1
			continue
		}
		li := 0
		if e.shards > 1 {
			if e.addrs[i].ok {
				li = e.laneFor(e.addrs[i].block)
			} else {
				li = residue
				e.stats.Residue++
			}
		}
		e.laneOf[i] = li
		e.riLane = append(e.riLane, uint16(li))
	}
	e.stats.Kept = len(e.spans)
	// Stage B: greedy assignment, one worker per shard, each walking
	// the chunk's prefix in input order. Lanes write only their own
	// state; the batch, signatures, and routing tables are read-only
	// here.
	e.curN = cut
	parallel.Run(e.workers, len(e.lanes), e.fnB)
	e.stats.StageBSeconds += time.Since(tB).Seconds()
	e.curBatch = nil
	return cut
}

// bump credits one read to its own provisionally parsed slot and, when
// that lifts the slot to its target's effective floor, takes it off
// the version's short count. Counts only grow, so a slot crosses the
// floor at most once per floor.
func (e *Engine) bump(s slotAddr) {
	k := slotKey{s.block, s.version, s.intra}
	n := e.cov[k] + 1
	e.cov[k] = n
	f := e.floors[s.block]
	if f == nil || s.intra < 0 || s.intra >= layout.UnitMolecules || n != e.effFloor(s.block) {
		return
	}
	for i, v := range f.versions {
		if v != s.version {
			continue
		}
		if f.short[i]--; f.short[i] == e.slack {
			if f.over--; f.over == 0 {
				e.pending--
			}
		}
	}
}

// effFloor is the block's current coverage floor: DefaultFloor,
// doubled per escalation round. The shift saturates so repeated
// escalation of an unrecoverable block degrades into "never done" —
// the stream then runs to its read budget.
func (e *Engine) effFloor(block int) int {
	n := e.reopened[block]
	if n > 24 {
		return int(^uint(0) >> 2)
	}
	return DefaultFloor << n
}

// Done reports whether every expected version of the block has reached
// its coverage floor — the signal to stop (or redirect) sequencing for
// it. A version tolerates up to half the RS parity in slots below the
// floor: waiting for the very rarest strand species is a pure
// coupon-collector tail (the last slot of a unit costs a multiple of
// what the first fourteen did), while the unit decoder erases its
// thinnest slots and lets the parity carry them. A thin slot the
// erasure margin cannot absorb fails the finalize, and Reopen takes it
// from there. Unregistered blocks are never done. The verdict reads the
// counts bump keeps, so it costs O(1): the pore gate asks it for every
// molecule it draws.
func (e *Engine) Done(block int) bool {
	f := e.floors[block]
	return f != nil && f.met()
}

// AllDone reports whether every registered target is Done.
func (e *Engine) AllDone() bool { return e.pending == 0 }

// CoverageEstimate reports the mean per-slot read coverage across the
// expected slots of every target registered via Expect — the engine's
// live coverage state, which health probes read in place of
// re-deriving coverage from a scaled full-budget read. 0 when no
// target has an expected slot.
func (e *Engine) CoverageEstimate() float64 {
	total, slots := 0, 0
	for _, b := range e.targets {
		for _, v := range e.floors[b].versions {
			for intra := 0; intra < layout.UnitMolecules; intra++ {
				total += e.cov[slotKey{b, v, intra}]
				slots++
			}
		}
	}
	if slots == 0 {
		return 0
	}
	return float64(total) / float64(slots)
}

// Reopen escalates a block after a failed finalize: its coverage floor
// doubles and its floor counts are rebuilt against it, so sequencing
// (and gating) resumes for its strands until the raised floor — or the
// caller's read budget — is hit. The floor proved too shallow once, so
// the next stop demands twice the evidence; repeated failures degrade
// exponentially fast into the full-budget behavior. Nothing of an
// earlier finalize is kept, so the next one decodes every read the
// escalation adds.
func (e *Engine) Reopen(block int) {
	e.reopened[block]++
	if e.floors[block] != nil {
		e.refloor(block)
	}
}

// laneSet lists the shards participating in one shard's finalize: the
// shard itself plus, when sharding is on, the residue shard — an
// unparseable read may still carry a usable payload for any block.
func (e *Engine) laneSet(li int) []int {
	if e.shards <= 1 {
		return []int{0}
	}
	return []int{li, e.shards}
}

// materialize unpacks the arena into the kept-read slice and merges
// every shard's clusters ordered by descending size — stable, ties in
// founding order — reproducing cluster.Group's output contract over
// the accumulated state (bit-identical at one shard).
func (e *Engine) materialize() ([]dna.Seq, [][]int) {
	return e.materializeLanes(e.allLanes())
}

// allLanes lists every shard, the residue shard included.
func (e *Engine) allLanes() []int {
	set := make([]int, len(e.lanes))
	for i := range set {
		set[i] = i
	}
	return set
}

// clusterRef is one lane cluster in the cross-shard merge: its founder
// and its member list.
type clusterRef struct {
	founder int
	members []int
}

// materializeLanes unpacks the kept reads of the given shards and
// returns their clusters — reindexed against the returned read slice,
// merged across shards in descending size, ties in founding order.
// With every shard in the set the clusters alias the lanes'
// member lists. The reads and the clusters live in the engine's
// storage, which the next call reuses: a caller is done with them
// before it materializes again.
func (e *Engine) materializeLanes(set []int) ([]dna.Seq, [][]int) {
	all := len(set) == len(e.lanes)
	if cap(e.laneMask) < len(e.lanes) {
		e.laneMask = make([]bool, len(e.lanes))
	}
	mask := e.laneMask[:len(e.lanes)]
	for i := range mask {
		mask[i] = false
	}
	for _, li := range set {
		mask[li] = true
	}
	var local []int32
	n, bases := len(e.spans), e.bases
	if !all {
		if cap(e.localIdx) < len(e.spans) {
			e.localIdx = make([]int32, len(e.spans))
		}
		local = e.localIdx[:len(e.spans)]
		n, bases = 0, 0
		for i, s := range e.spans {
			if mask[e.riLane[i]] {
				local[i] = int32(n)
				n++
				bases += s.n
			}
		}
	}
	e.kept = slices.Grow(e.kept[:0], n)[:n]
	if cap(e.slab) < bases {
		e.slab = make(dna.Seq, 0, bases)
	}
	kept, slab := e.kept, e.slab[:0]
	k := 0
	for i, s := range e.spans {
		if !all && !mask[e.riLane[i]] {
			continue
		}
		view := dna.PackedView(e.arena[s.off:s.off+(s.n+3)/4], s.n)
		start := len(slab)
		slab = view.AppendRange(slab, 0, s.n)
		kept[k] = slab[start:len(slab):len(slab)]
		k++
	}
	refs, members := e.refs[:0], 0
	for _, li := range set {
		l := e.lanes[li]
		for ci := range l.members {
			refs = append(refs, clusterRef{l.founders[ci], l.members[ci]})
			members += len(l.members[ci])
		}
	}
	e.refs = refs
	// Descending size, ties in founding order (founder indices are
	// unique, so the order is total): at one shard this is exactly
	// cluster.Group's ordering, and across shards it is the canonical
	// deterministic merge.
	slices.SortFunc(refs, func(a, b clusterRef) int {
		if c := cmp.Compare(len(b.members), len(a.members)); c != 0 {
			return c
		}
		return cmp.Compare(a.founder, b.founder)
	})
	clusters := e.clusters[:0]
	if all {
		for _, ref := range refs {
			clusters = append(clusters, ref.members)
		}
	} else {
		flat := slices.Grow(e.flat[:0], members)
		for _, ref := range refs {
			start := len(flat)
			for _, ri := range ref.members {
				flat = append(flat, int(local[ri]))
			}
			clusters = append(clusters, flat[start:len(flat):len(flat)])
		}
		e.flat = flat
	}
	e.clusters = clusters
	return kept, clusters
}

// decodeLanes runs the back half of the decode pipeline — trace
// reconstruction, RS decoding, candidate recursion — over the given
// shards' accumulated clusters, on the caller.
func (e *Engine) decodeLanes(set []int, target int) (map[int]*decode.BlockResult, error) {
	t0 := time.Now()
	kept, clusters := e.materializeLanes(set)
	results, err := e.pipe.DecodeClusters(kept, clusters, target)
	d := time.Since(t0).Seconds()
	e.stats.FinalizeSeconds += d
	e.stats.FinalizeWaitSeconds += d
	return results, err
}

// decodeLane is one lane decode: every block visible in a shard's lane
// set, decoded in one pass.
func (e *Engine) decodeLane(li int) (map[int]*decode.BlockResult, error) {
	e.stats.FinalizeJobs++
	return e.decodeLanes(e.laneSet(li), -1)
}

// FinalizeBlock decodes the block from the accumulated clusters of its
// shard and the residue shard. A target registered via Expect gets a
// lane decode, so it decodes exactly as it would in Finalize; any other
// block (Decode's lone target) stops as soon as its units are complete.
// The engine remains usable afterwards: escalation adds more reads and
// finalizes again.
func (e *Engine) FinalizeBlock(block int) (*decode.BlockResult, error) {
	var results map[int]*decode.BlockResult
	var err error
	if e.IsTarget(block) {
		results, err = e.decodeLane(e.laneFor(block))
	} else {
		results, err = e.decodeLanes(e.laneSet(e.laneFor(block)), block)
	}
	return decode.FinishBlock(results, err, block)
}

// Finalize drains the engine. With targets registered it decodes each
// shard that holds one once, then finalizes the targets in ascending
// block order and aggregates deterministically: the result map holds
// every target that produced a decode, and the returned error is
// non-nil only when no target did (the first failure, by block order).
// Without targets (Decode's full-budget protocol) it decodes every
// block visible in the accumulated clusters in one pass.
func (e *Engine) Finalize() (map[int]*decode.BlockResult, error) {
	if len(e.targets) == 0 {
		return e.decodeLanes(e.allLanes(), -1)
	}
	type laneResult struct {
		results map[int]*decode.BlockResult
		err     error
	}
	decoded := make(map[int]laneResult, e.shards)
	out := make(map[int]*decode.BlockResult, len(e.targets))
	var firstErr error
	for _, b := range e.targets {
		li := e.laneFor(b)
		lr, ok := decoded[li]
		if !ok {
			lr.results, lr.err = e.decodeLane(li)
			decoded[li] = lr
		}
		res, err := decode.FinishBlock(lr.results, lr.err, b)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if res != nil {
			out[b] = res
		}
	}
	if len(out) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Decode is the full-budget protocol: it feeds a materialized read set
// to a one-shard engine with no targets, hence no floor, fanned across
// the pipeline's workers. target < 0 returns Finalize (every visible
// block); otherwise the map holds FinalizeBlock(target)'s result, nil
// on failure, under target. At one shard the clusters are
// cluster.Group's, so the outcome is the reference decode's exactly.
func Decode(pipe *decode.Pipeline, reads []dna.Seq, target int) (map[int]*decode.BlockResult, error) {
	e, err := New(pipe, pipe.Workers(), 1)
	if err != nil {
		return nil, err
	}
	defer e.Release()
	e.Add(reads, nil)
	if target < 0 {
		return e.Finalize()
	}
	res, err := e.FinalizeBlock(target)
	return map[int]*decode.BlockResult{target: res}, err
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growUints(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growAddrs(s []slotAddr, n int) []slotAddr {
	if cap(s) < n {
		return make([]slotAddr, n)
	}
	return s[:n]
}
