package binding

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
)

// DefaultEntries is the content-store entry budget of a Cache created
// with a non-positive size. An entry costs a 24-byte record, its window
// key (17 bytes for a 150-base strand and 20–23-base primers; the
// template's payload is not stored) and a share of a uint32 index:
// 49–51 bytes of live heap per resident entry between 10^5 and 10^6
// entries (TestContentStoreBytesPerEntry pins <= 56), and a full
// default cache measures 51 MB. It is sized for the 10^5–10^6-strand
// pools the scale experiments target: each species costs at most one
// entry per primer pair that has aligned it twice (a binding a pool
// row already holds is admitted only on its second sighting, so a
// one-shot reaction fills its row, not the store), and decay mutants
// that differ only in payload share their parent's.
const DefaultEntries = 1 << 20

// shardCount spreads the content store over independently locked
// shards so concurrent reactions (and the parallel scoring chunks
// inside one reaction) rarely contend. A key's hash picks its shard
// with its top shardBits bits.
const (
	shardBits  = 6
	shardCount = 1 << shardBits
)

// maxRows bounds how many (primer pair, pool identity) dense rows the
// cache keeps, LRU-evicted at Begin time. Each row costs 8 bytes per
// input species, so the worst case is maxRows x pool size x 8 bytes.
const maxRows = 64

// The doorkeeper records a shard's first sightings of row-held
// bindings (TinyLFU's doorkeeper; Einziger, Friedman and Manes, 2017),
// so the content store admits one only when it is seen again.
//
// doorBits is its size: 2^15 bits, 4 KiB per shard and 256 KiB per
// cache, allocated on the shard's first decline. Two probes per key.
//
// doorResetMarks is how many first sightings the shard marks before it
// clears the doorkeeper. At most 2 x 4,096 of its 32,768 bits are then
// set, so a binding never seen passes for a second sighting with
// probability under 5% (an early admission, never a wrong answer).
// The cache still remembers about its last 2^18 first sightings, far
// more than one reaction over a 13k-species aged tube makes; a
// sighting forgotten sooner is only declined once more.
const (
	doorBits       = 1 << 15
	doorResetMarks = 1 << 12
)

// Stats is a snapshot of a Cache's counters.
type Stats struct {
	RowHits   uint64 // Bind answered by an index-addressed row (lock-free)
	Hits      uint64 // Bind answered by the content store
	Misses    uint64 // Bind computed an alignment
	Declined  uint64 // row-held misses not admitted: first sightings
	Evictions uint64 // content entries displaced by the clock hand
	Entries   int    // content entries currently resident

	// PatternHits and PatternMisses count the compiled-pattern memo:
	// misses ran dna.CompilePattern, hits reused an Eq table.
	PatternHits   uint64
	PatternMisses uint64
}

// HitRate returns the fraction of Bind calls answered without aligning:
// (RowHits + Hits) / (RowHits + Hits + Misses), or 0 before any Bind.
func (s Stats) HitRate() float64 {
	served := s.RowHits + s.Hits
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Cache is a bounded, store-level binding cache shared across
// reactions. It layers two structures, both holding the same immutable
// facts:
//
//   - A content-addressed store keyed by (primer pair, distance budget,
//     template window key) — all content, no identity — bounded by the
//     entry budget with clock (second-chance) eviction. A window key
//     (appendWindowKey) holds the template's base count and the packed
//     bytes covering the two windows the alignments read, so templates
//     that differ only in payload, such as decay mutants of one strand,
//     share an entry. Entries never need invalidation: a pool gaining
//     or losing species changes no key, and pools that share sequences
//     (a tube and its PCR products, two stores with the same corpus)
//     share entries. The pair and budget are interned at Begin as a
//     dense id, so an entry is a pointer-free record holding that id,
//     the binding and the window key's bytes in a per-shard arena.
//     Admission is scan-resistant: a binding a row already holds is
//     stored only on its second sighting (see put), since a one-shot
//     reaction, such as a point read with its block's own elongated
//     pair, never looks it up again.
//
//   - Per (primer pair, pool identity) dense rows indexed by species
//     position, assembled at Begin from pool.ID(). Pools are
//     append-only, so a row slot, once filled, is valid forever; the
//     id is purely an assembly address, never an invalidation hook.
//     Rows exist because the bit-parallel engine made a single
//     alignment (~0.2 µs) cheap enough that even a content hit (hash
//     the template, lock a shard, probe) is a visible cost, while a
//     row hit is one atomic load. Row slots are published as packed
//     uint64s, so readers never take a lock on the hot path.
//
// Cache also memoizes dna.CompilePattern per sequence, so repeated
// reactions (and decode pipelines, via the PatternCompiler hook in
// package decode) stop rebuilding Eq tables. The pattern memo and the
// pair ids are unbounded but tiny: one entry per distinct primer,
// elongated primer or (pair, budget) the store has ever used.
//
// All methods are safe for concurrent use.
type Cache struct {
	budget int // per-shard content entry budget
	shards [shardCount]shard

	rowHits   atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	declined  atomic.Uint64
	evictions atomic.Uint64
	patHits   atomic.Uint64
	patMisses atomic.Uint64

	rowMu   sync.Mutex
	rows    map[rowKey]*poolRow
	rowTick int64

	patMu sync.RWMutex
	pats  map[string]*dna.Pattern

	pairMu sync.Mutex
	pairs  map[string]uint32 // appendPairKey bytes -> interned pair id
}

// rowKey addresses one dense row: an interned pair and a pool identity.
type rowKey struct {
	pair uint32
	pool uint64
}

// shard is one independently locked part of the content store. Its
// entries are flat records with no pointers, so the GC never scans
// them, and their window keys live in an arena of chunks; idx is an
// open-addressed index over entries (0 = empty slot, otherwise entry
// index + 1). Entries and arena grow a fixed-size block or chunk at a
// time, so growth never copies and over-allocates at most one of each.
type shard struct {
	mu     sync.Mutex
	blocks [][]entry // entry i is blocks[i>>blockShift][i&blockMask]
	n      int       // resident entries
	chunks [][]byte  // arena; a span never straddles chunks
	used   int       // arena bytes written, live or dead
	dead   int       // arena bytes no entry references
	idx    []uint32
	hand   int // clock hand over entries

	door  []uint64 // doorkeeper bitset; nil until the first decline
	marks int      // first sightings marked since door was cleared
}

// entry is one resident content-store binding.
type entry struct {
	b    uint64 // packBinding word
	off  uint32 // window key span address: chunk<<chunkShift | byte offset
	pair uint32 // interned (fwd, rev, maxDist) id
	klen uint8  // window key bytes in the span
	ref  bool   // clock reference bit
}

// maxKeyLen bounds a window key: a base-count uvarint, the bytes
// covering a forward window of at most dna.MaxPatternLen+AlignSlack
// bases, and those covering a reverse window as long, which may
// straddle one byte more.
const maxKeyLen = binary.MaxVarintLen64 + 2*((dna.MaxPatternLen+AlignSlack+3)/4) + 1

// appendWindowKey appends template t's window key for a pair whose
// alignments read the first fn and the last rn bases: t's base count
// as a uvarint, the packed bytes covering bases [0, min(fn, n)), and
// the packed bytes covering [n-min(rn, n), n). bindPacked reads no
// other base, so under one interned pair (which fixes fn, rn and the
// budget) equal keys mean equal bindings. The base count fixes both
// byte ranges' lengths and how the trailing partial byte packs, so
// the key is unambiguous; the ranges may overlap on short templates.
// The bytes come straight from t's packed storage, never unpacked.
func appendWindowKey(buf []byte, t dna.Packed, fn, rn int) []byte {
	n, b := t.Len(), t.Bytes()
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = append(buf, b[:(min(fn, n)+3)/4]...)
	return append(buf, b[(n-min(rn, n))/4:]...)
}

const (
	blockShift = 7 // 128 entries, 3 KiB per block
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1

	chunkShift = 11 // 2 KiB arena chunks
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	maxChunks  = 1 << (32 - chunkShift) // uint32 span addresses
)

// NewCache returns a cache whose content store is bounded to roughly
// maxEntries bindings (rounded up to a multiple of the shard count).
// maxEntries <= 0 selects DefaultEntries.
func NewCache(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	per := (maxEntries + shardCount - 1) / shardCount
	return &Cache{
		budget: per,
		rows:   make(map[rowKey]*poolRow),
		pats:   make(map[string]*dna.Pattern),
		pairs:  make(map[string]uint32),
	}
}

// Stats returns a snapshot of the counters. Entries walks the shards
// under their locks; the other counters are loaded atomically.
func (c *Cache) Stats() Stats {
	s := Stats{
		RowHits:       c.rowHits.Load(),
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Declined:      c.declined.Load(),
		Evictions:     c.evictions.Load(),
		PatternHits:   c.patHits.Load(),
		PatternMisses: c.patMisses.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += sh.n
		sh.mu.Unlock()
	}
	return s
}

// Pattern returns the compiled bit-parallel pattern for seq, compiling
// it at most once per distinct sequence.
func (c *Cache) Pattern(seq dna.Seq) *dna.Pattern {
	key := string(dna.AppendPacked(nil, seq))
	c.patMu.RLock()
	p := c.pats[key]
	c.patMu.RUnlock()
	if p != nil {
		c.patHits.Add(1)
		return p
	}
	c.patMisses.Add(1)
	p = dna.CompilePattern(seq)
	c.patMu.Lock()
	if q, ok := c.pats[key]; ok {
		p = q
	} else {
		c.pats[key] = p
	}
	c.patMu.Unlock()
	return p
}

// pairID interns a (fwd, rev, maxDist) content key, so entries and rows
// name their pair in four bytes instead of repeating its primers.
func (c *Cache) pairID(key []byte) uint32 {
	c.pairMu.Lock()
	defer c.pairMu.Unlock()
	id, ok := c.pairs[string(key)]
	if !ok {
		id = uint32(len(c.pairs))
		c.pairs[string(key)] = id
	}
	return id
}

// --- packed row slots ----------------------------------------------------

// Row slots pack a Binding into one uint64 so readers need only an
// atomic load: state in the top bits, then distance, then end. The
// zero word means "not yet filled" (State Unknown is 0, and both None
// and OK set a state bit).
func packBinding(b Binding) uint64 {
	return uint64(b.State)<<62 | uint64(uint32(b.Dist)&0x3fffffff)<<32 | uint64(uint32(b.End))
}

func unpackBinding(x uint64) Binding {
	return Binding{
		State: uint8(x >> 62),
		Dist:  int32(x >> 32 & 0x3fffffff),
		End:   int32(uint32(x)),
	}
}

// poolRow is one (primer pair, pool identity) dense row. The slice is
// published through an atomic pointer; growth copies under mu and
// swaps, so readers never block. A write racing a growth may land in
// the retiring array and be lost — that only costs a recomputation of
// a pure fact, never a wrong answer.
type poolRow struct {
	mu  sync.Mutex
	arr atomic.Pointer[[]atomic.Uint64]
	use atomic.Int64 // LRU stamp, bumped by Begin
}

// grow ensures the row has at least n slots.
func (r *poolRow) grow(n int) {
	cur := r.arr.Load()
	if cur != nil && len(*cur) >= n {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur = r.arr.Load()
	if cur != nil && len(*cur) >= n {
		return
	}
	next := make([]atomic.Uint64, n)
	if cur != nil {
		for i := range *cur {
			next[i].Store((*cur)[i].Load())
		}
	}
	r.arr.Store(&next)
}

func (r *poolRow) load(si int) uint64 {
	cur := r.arr.Load()
	if cur == nil || si >= len(*cur) {
		return 0
	}
	return (*cur)[si].Load()
}

func (r *poolRow) store(si int, x uint64) {
	cur := r.arr.Load()
	if cur != nil && si < len(*cur) {
		(*cur)[si].Store(x)
	}
}

// row returns (creating if needed) the dense row for an interned pair
// and pool id, bumping its LRU stamp and evicting the coldest row over
// budget. Rows hold only redundant copies of pure facts, so eviction
// is always safe.
func (c *Cache) row(pair uint32, id uint64) *poolRow {
	key := rowKey{pair: pair, pool: id}
	c.rowMu.Lock()
	defer c.rowMu.Unlock()
	c.rowTick++
	r, ok := c.rows[key]
	if !ok {
		if len(c.rows) >= maxRows {
			var coldKey rowKey
			coldUse := int64(1<<63 - 1)
			for k, v := range c.rows {
				if u := v.use.Load(); u < coldUse {
					coldKey, coldUse = k, u
				}
			}
			delete(c.rows, coldKey)
		}
		r = &poolRow{}
		c.rows[key] = r
	}
	r.use.Store(c.rowTick)
	return r
}

// --- the cached reaction -------------------------------------------------

// Begin starts one reaction: patterns come from the memo, each pair is
// interned and attaches its input-pool row (when the pool has an
// identity), and every Bind consults the row, then the content store,
// then aligns.
func (c *Cache) Begin(pairs []Pair, maxDist int, input *pool.Pool) Reaction {
	rx := &cachedReaction{c: c, maxDist: maxDist, pairs: make([]cachedPair, len(pairs))}
	var id uint64
	if input != nil {
		id = input.ID()
		rx.n0 = input.Len()
	}
	var key []byte
	for i, p := range pairs {
		key = appendPairKey(key[:0], p, maxDist)
		cp := cachedPair{
			cp: compiledPair{fwd: c.Pattern(p.Fwd), rev: c.Pattern(p.Rev)},
			id: c.pairID(key),
		}
		// A pool that never saw an Add reports id 0 and could alias
		// another fresh pool; it also has no species, so skip the row.
		if id != 0 && rx.n0 > 0 {
			cp.row = c.row(cp.id, id)
			cp.row.grow(rx.n0)
		}
		rx.pairs[i] = cp
	}
	return rx
}

type cachedPair struct {
	cp  compiledPair
	id  uint32 // interned (fwd, rev, maxDist)
	row *poolRow
}

type cachedReaction struct {
	c       *Cache
	maxDist int
	n0      int // input species count at Begin; rows address [0, n0)
	pairs   []cachedPair
}

func (r *cachedReaction) Bind(pi, si int, template dna.Packed) Binding {
	p := &r.pairs[pi]
	inRow := p.row != nil && si >= 0 && si < r.n0
	if inRow {
		if x := p.row.load(si); x != 0 {
			r.c.rowHits.Add(1)
			return unpackBinding(x)
		}
	}
	var kb [maxKeyLen]byte
	k := appendWindowKey(kb[:0], template, p.cp.fwd.Len()+AlignSlack, p.cp.rev.Len()+AlignSlack)
	h := hashKey(p.id, k)
	b, ok := r.c.get(h, p.id, k)
	if !ok {
		b = p.cp.bindPacked(template, r.maxDist)
		r.c.put(h, p.id, k, b, inRow)
	}
	if inRow {
		p.row.store(si, packBinding(b))
	}
	return b
}

// --- the content store ----------------------------------------------------

// hashKey hashes a content key — interned pair id and window key —
// eight bytes at a time. It is deterministic, so shard placement and
// eviction order reproduce run to run. The top shardBits bits pick the
// shard and the low bits the index slot.
func hashKey(pair uint32, b []byte) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := (uint64(pair)<<32 | uint64(len(b))) * m
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * m
		h ^= h >> 32
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * m
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

func (c *Cache) shard(h uint64) *shard { return &c.shards[h>>(64-shardBits)] }

func (sh *shard) ent(i int) *entry { return &sh.blocks[i>>blockShift][i&blockMask] }

// span returns an entry's window key bytes in an arena.
func span(chunks [][]byte, e *entry) []byte {
	o := e.off & chunkMask
	return chunks[e.off>>chunkShift][o : o+uint32(e.klen)]
}

// hashOf rehashes resident entry i, for index growth and deletion.
func (sh *shard) hashOf(i int) uint64 {
	e := sh.ent(i)
	return hashKey(e.pair, span(sh.chunks, e))
}

// find returns the index of the entry for (pair, k), or -1. A slot
// answers only when the full key — pair and every window key byte —
// matches; the hash just picks where the probe starts.
func (sh *shard) find(h uint64, pair uint32, k []byte) int {
	if len(sh.idx) == 0 {
		return -1
	}
	mask := uint64(len(sh.idx) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		v := sh.idx[j]
		if v == 0 {
			return -1
		}
		if e := sh.ent(int(v - 1)); e.pair == pair && bytes.Equal(span(sh.chunks, e), k) {
			return int(v - 1)
		}
	}
}

// link points the first empty slot on h's probe path at entry i.
func (sh *shard) link(h uint64, i int) {
	mask := uint64(len(sh.idx) - 1)
	j := h & mask
	for sh.idx[j] != 0 {
		j = (j + 1) & mask
	}
	sh.idx[j] = uint32(i + 1)
}

// unlink removes entry i from the index by backward shifting: each
// later member of the probe run moves into the hole unless its home
// slot lies after the hole, so no probe path ever crosses an empty
// slot and no tombstones accumulate under eviction.
func (sh *shard) unlink(i int) {
	mask := uint64(len(sh.idx) - 1)
	j := sh.hashOf(i) & mask
	for sh.idx[j] != uint32(i+1) {
		j = (j + 1) & mask
	}
	for k := (j + 1) & mask; sh.idx[k] != 0; k = (k + 1) & mask {
		v := sh.idx[k]
		if home := sh.hashOf(int(v-1)) & mask; (k-home)&mask >= (k-j)&mask {
			sh.idx[j] = v
			j = k
		}
	}
	sh.idx[j] = 0
}

// reserve grows the index, when needed, so one more entry keeps it at
// most 3/4 full.
func (sh *shard) reserve() {
	if (sh.n+1)*4 <= len(sh.idx)*3 {
		return
	}
	size := 16
	for size*3 < (sh.n+1)*4 {
		size *= 2
	}
	sh.idx = make([]uint32, size)
	for i := 0; i < sh.n; i++ {
		sh.link(sh.hashOf(i), i)
	}
}

// appendKey copies k into the arena and returns its span address. A
// span never starts at a chunk's end, so its byte offset fits under
// chunkMask; keys are at most maxKeyLen bytes, far below a chunk.
func (sh *shard) appendKey(k []byte) uint32 {
	last := len(sh.chunks) - 1
	if last < 0 || len(sh.chunks[last])+len(k) >= chunkSize {
		if len(sh.chunks) == maxChunks {
			panic("binding: content arena address space exhausted")
		}
		sh.chunks = append(sh.chunks, make([]byte, 0, chunkSize))
		last++
	}
	off := uint32(last)<<chunkShift | uint32(len(sh.chunks[last]))
	sh.chunks[last] = append(sh.chunks[last], k...)
	sh.used += len(k)
	return off
}

// compact rewrites the arena with only the live window key bytes. put
// calls it once dead bytes outnumber live ones, so the arena stays
// within twice the live key bytes, and each copy is paid for by the
// evictions that made the garbage.
func (sh *shard) compact() {
	old := sh.chunks
	sh.chunks, sh.used = nil, 0
	for i := 0; i < sh.n; i++ {
		e := sh.ent(i)
		e.off = sh.appendKey(span(old, e))
	}
	sh.dead = 0
}

// get looks a key up in the content store, marking the entry
// referenced. The caller builds the window key in a stack buffer, so
// hits allocate nothing.
func (c *Cache) get(h uint64, pair uint32, k []byte) (Binding, bool) {
	sh := c.shard(h)
	sh.mu.Lock()
	if i := sh.find(h, pair, k); i >= 0 {
		e := sh.ent(i)
		e.ref = true
		x := e.b
		sh.mu.Unlock()
		c.hits.Add(1)
		return unpackBinding(x), true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return Binding{}, false
}

// seen reports whether the doorkeeper has marked h since it was last
// cleared, marking it if not.
func (sh *shard) seen(h uint64) bool {
	if sh.door == nil {
		sh.door = make([]uint64, doorBits/64)
	}
	// The shard takes h's top bits; the probes take two 15-bit fields
	// below them.
	i, j := h>>16&(doorBits-1), h>>32&(doorBits-1)
	wi, bi := &sh.door[i>>6], uint64(1)<<(i&63)
	wj, bj := &sh.door[j>>6], uint64(1)<<(j&63)
	if *wi&bi != 0 && *wj&bj != 0 {
		return true
	}
	*wi |= bi
	*wj |= bj
	if sh.marks++; sh.marks == doorResetMarks {
		clear(sh.door)
		sh.marks = 0
	}
	return false
}

// put inserts a freshly computed binding, evicting by clock when the
// shard is at budget. A held binding (one a pool row now holds) enters
// only on its second sighting: its own reaction reads it from the row,
// so the store pays off only when another row or a rowless reaction
// asks for it, and a first sighting just marks the doorkeeper. Bindings
// outside any row (misprime products appended during a reaction, pools
// without an identity) enter at once; they are what warm reactions
// hit. Concurrent reactions may compute the same miss and both put it;
// the second insert just overwrites the identical value (bindings are
// pure, so the race is benign).
func (c *Cache) put(h uint64, pair uint32, k []byte, b Binding, held bool) {
	sh := c.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if held && !sh.seen(h) {
		c.declined.Add(1)
		return
	}
	x := packBinding(b)
	if i := sh.find(h, pair, k); i >= 0 {
		e := sh.ent(i)
		e.b, e.ref = x, true
		return
	}
	e := entry{b: x, pair: pair, klen: uint8(len(k)), ref: true}
	if sh.n < c.budget {
		sh.reserve()
		if sh.n&blockMask == 0 {
			sh.blocks = append(sh.blocks, make([]entry, 0, blockLen))
		}
		e.off = sh.appendKey(k)
		sh.blocks[sh.n>>blockShift] = append(sh.blocks[sh.n>>blockShift], e)
		sh.link(h, sh.n)
		sh.n++
		return
	}
	// Clock sweep: give referenced entries a second chance. The sweep
	// terminates because it clears a bit on every step.
	for {
		if sh.hand >= sh.n {
			sh.hand = 0
		}
		v := sh.ent(sh.hand)
		if !v.ref {
			break
		}
		v.ref = false
		sh.hand++
	}
	vi := sh.hand
	sh.hand++
	sh.unlink(vi)
	// Reuse the victim's bytes when the new key fits in them.
	victim := sh.ent(vi)
	if old := span(sh.chunks, victim); len(k) <= len(old) {
		e.off = victim.off
		copy(old, k)
		sh.dead += len(old) - len(k)
	} else {
		e.off = sh.appendKey(k)
		sh.dead += len(old)
	}
	*victim = e
	sh.link(h, vi)
	if sh.dead > sh.used-sh.dead {
		sh.compact()
	}
	c.evictions.Add(1)
}
