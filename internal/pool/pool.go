// Package pool models a physical DNA pool: a multiset of molecule
// species, each present at some abundance (copy count).
//
// Pools support the wet-lab manipulations the paper performs: synthesis
// with natural per-strand copy-number skew (within ~2x, Figure 9a),
// dilution, mixing of separately synthesized pools (Section 6.4.2, with
// the 50000x concentration gap between vendors), and noisy concentration
// measurement standing in for the nanodrop.
//
// # Memory layout
//
// The pool is arena-backed: every species sequence lives as a 2-bit
// packed span inside a shared append-only chunk arena, and the species
// records themselves are flat structs in fixed-size segments — no
// per-species heap object, no per-insert sequence copy beyond the 4x
// compressed packing. Species are addressed by index (append-only, so
// indexes are stable for the pool's lifetime) and read through
// zero-copy views: PackedSeq returns a dna.Packed aliasing the arena,
// AppendSeq decodes into a caller buffer. The string-keyed species map
// of earlier revisions is an open-addressed hash over arena spans, so
// Add probes without materializing a key string.
//
// Clone is O(1) copy-on-write: parent and child share the arena and
// the record segments behind a write epoch, and the first mutation on
// either side copies only the segments (and slice headers) it touches.
// A snapshot therefore costs one allocation regardless of pool size,
// and an unmutated snapshot stays free. The COW contract is what makes
// zero-copy views safe: sequences in the arena are immutable for the
// life of every pool that can address them.
//
// # Release and epoch ownership
//
// Every segment and arena chunk is stamped with the write epoch that
// created it, and Clone moves both sides to fresh epochs. Storage
// stamped with a pool's current epoch was therefore written since its
// latest Clone and is reachable from no other pool. Release hands
// exactly that storage, plus the pool's species index, to free lists
// that later pools draw from, and leaves the pool empty; anything
// older is shared with a snapshot and is never released. A short-lived
// pool built from a long-lived one (a PCR product of the tube) thus
// returns what it wrote without touching what it shares, and the next
// such pool reuses it instead of allocating. The free lists hold weak
// pointers, so released storage nobody takes back is collected as
// usual. A released pool's PackedSeq views end with it.
package pool

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"dnastore/internal/dna"
	"dnastore/internal/recycle"
	"dnastore/internal/rng"
)

// Meta records the provenance of a species for ground-truth analysis.
// The decoder never looks at Meta; it exists so experiments can classify
// sequencing output exactly the way the paper's authors align reads back
// to known source strands.
type Meta struct {
	Partition string // partition (file) name
	Block     int    // block (encoding unit) number, -1 if unknown
	Version   int    // 0 = original data, >0 = update number
	Intra     int    // molecule position within the unit
	Misprimed bool   // true if this species was created by mispriming
	// OriginBlock is the block whose payload this species carries. For
	// regular species it equals Block; for misprimed species Block is the
	// block whose index was written by the primer while OriginBlock is
	// the template's block (Section 8.1: misprimed strands "have had
	// their primers overwritten by the target primer, but they retain
	// their original payloads").
	OriginBlock int
}

// Species is one distinct molecule sequence and its abundance, as a
// materialized value. The pool's own storage is the flat record form;
// Species exists for APIs that hand out self-contained copies
// (TopSpecies, SpeciesAt).
type Species struct {
	Seq       dna.Seq
	Abundance float64
	Meta      Meta
}

// record is the flat in-pool form of one species: a 2-bit arena span
// address plus abundance and provenance, with the partition name
// interned. Records are pointer-free, so a segment copy is one memcpy
// and the GC never scans species.
type record struct {
	off       uint32 // arena span start: chunk index << chunkShift | byte offset
	n         int32  // base count; the span holds (n+3)/4 packed bytes
	abundance float64
	part      uint32 // interned partition-name index
	block     int32
	version   int32
	intra     int32
	origin    int32
	misprimed bool
}

const (
	// Records live in fixed segments so the copy unit of a COW write is
	// bounded: one segment, not the whole pool.
	segShift = 10
	segLen   = 1 << segShift
	segMask  = segLen - 1

	// Arena chunks occupy a fixed address stride so a uint32 span
	// offset splits into (chunk, byte) with shifts. Physical chunk
	// sizes grow geometrically up to the stride, so small pools do not
	// pay for large chunks. A span never straddles chunks.
	chunkShift = 20
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	maxChunks  = 1 << (32 - chunkShift)

	minChunk  = 4 << 10
	growShift = 3 // successive owned chunks grow 8x until chunkSize
)

// arenaChunk is one arena chunk, stamped with the write epoch that
// opened it: only that epoch may append to it, and a pool releases it
// only while the epoch is still its own.
type arenaChunk struct {
	b   []byte
	gen uint64
}

// segment is one fixed-capacity run of records, tagged with the write
// epoch that owns it. A pool may write a segment in place only when the
// tags match; otherwise the segment is shared with a snapshot and is
// copied first.
type segment struct {
	gen  uint64
	recs []record
}

// lastPoolID hands out process-unique pool identities; ids are never
// reused, so (id, revision) pairs from different pools never collide.
var lastPoolID atomic.Uint64

// lastEpoch hands out process-unique write epochs. Clone gives both
// sides fresh epochs, which is what invalidates in-place writes to the
// now-shared segments and arena tail.
var lastEpoch atomic.Uint64

// Pool is a collection of species. The zero value is an empty pool ready
// to use.
//
// A Pool is not safe for concurrent mutation, but any number of
// goroutines may read it concurrently, and Clone may be called
// concurrently with other Clones and reads. A clone and its parent are
// fully isolated: mutating one never perturbs the other.
type Pool struct {
	// Arena: chunks of 2-bit packed sequence bytes. All chunks but the
	// tail are sealed; the tail accepts appends only while its epoch
	// stamp matches the pool's epoch (a clone on either side retires
	// it).
	chunks []arenaChunk
	tail   int // bytes used in the tail chunk
	grown  int // chunks opened by this pool, for geometric sizing

	segs []*segment
	n    int // total records across segs

	parts   []string          // interned partition names; index 0 is ""
	partIdx map[string]uint32 // lazy inverse of parts

	// idx is the open-addressed species index over arena spans:
	// 0 = empty slot, otherwise record index + 1. It is dropped on
	// Clone and lazily rebuilt by the first Add.
	idx     []int32
	idxUsed int

	// total memoizes the left-fold abundance sum. Appending a new
	// species extends the fold exactly (t + a), so the memo stays
	// clean; any other abundance mutation marks it dirty and the next
	// Total recomputes the fold bit-identically. Atomics make the lazy
	// recompute safe under concurrent readers.
	total      atomic.Uint64 // Float64bits
	totalDirty atomic.Bool

	// shared marks the segs/chunks/parts slice headers as co-owned with
	// a snapshot (Clone sets it on both sides); the first mutation
	// copies the headers. Atomic because concurrent Clones both set it.
	shared atomic.Bool

	gen atomic.Uint64 // write epoch; foreign-epoch segments are copy-on-write

	keyBuf []byte // reusable scratch for packed lookup keys
	id     uint64 // process-unique identity, assigned on first use
	rev    uint64 // bumped by every mutating operation
}

// New returns an empty pool.
func New() *Pool {
	p := &Pool{id: lastPoolID.Add(1)}
	p.gen.Store(lastEpoch.Add(1))
	return p
}

func (p *Pool) init() {
	if p.id == 0 {
		p.id = lastPoolID.Add(1)
	}
	if p.gen.Load() == 0 {
		p.gen.Store(lastEpoch.Add(1))
	}
}

// Version identifies the pool's current contents: a process-unique pool
// id plus a revision bumped by every mutating operation. External
// caches over pool contents (e.g. seqsim's alias sampling tables) use
// it to detect staleness without hashing species.
func (p *Pool) Version() (id, rev uint64) { return p.id, p.rev }

// ensureOwned makes the pool's slice headers private before the first
// mutation after a Clone. The segments and chunks they point at stay
// shared; writableSeg and the arena epoch handle those.
func (p *Pool) ensureOwned() {
	if !p.shared.Load() {
		return
	}
	p.segs = append([]*segment(nil), p.segs...)
	p.chunks = append([]arenaChunk(nil), p.chunks...)
	p.parts = append([]string(nil), p.parts...)
	p.partIdx = nil
	p.shared.Store(false)
}

// rec returns the i-th record for reading.
func (p *Pool) rec(i int) *record { return &p.segs[i>>segShift].recs[i&segMask] }

// writableSeg returns segment si, copying it first if it is shared with
// a snapshot (its epoch differs from the pool's).
func (p *Pool) writableSeg(si int) *segment {
	s := p.segs[si]
	g := p.gen.Load()
	if s.gen == g {
		return s
	}
	ns := newSeg(g)
	ns.recs = append(ns.recs, s.recs...)
	p.segs[si] = ns
	return ns
}

func packedLen(n int32) int { return (int(n) + 3) / 4 }

// span returns the arena bytes of a record's packed sequence.
func (p *Pool) span(r *record) []byte {
	c := p.chunks[r.off>>chunkShift].b
	o := int(r.off & chunkMask)
	return c[o : o+packedLen(r.n)]
}

// appendSpan copies packed bytes into the arena and returns their span
// address. The tail chunk is retired whenever it is shared (epoch
// mismatch) or too full; spans never straddle chunks.
func (p *Pool) appendSpan(b []byte) uint32 {
	g := p.gen.Load()
	need := len(b)
	ci := len(p.chunks) - 1
	if ci < 0 || p.chunks[ci].gen != g || p.tail+need > len(p.chunks[ci].b) || p.tail+need > chunkSize {
		size := chunkSize
		if s := minChunk << (growShift * p.grown); s < chunkSize && s > 0 {
			size = s
		}
		if size < need {
			size = need // oversize strand: dedicated chunk, sealed below
		}
		if len(p.chunks) >= maxChunks {
			panic("pool: arena address space exhausted")
		}
		p.chunks = append(p.chunks, arenaChunk{b: newChunk(size), gen: g})
		p.grown++
		p.tail = 0
		ci = len(p.chunks) - 1
	}
	copy(p.chunks[ci].b[p.tail:], b)
	off := uint32(ci)<<chunkShift | uint32(p.tail)
	p.tail += need
	return off
}

// appendRecord appends a record, opening or COW-copying the tail
// segment as needed.
func (p *Pool) appendRecord(r record) {
	si := p.n >> segShift
	if si == len(p.segs) {
		p.segs = append(p.segs, newSeg(p.gen.Load()))
	}
	s := p.writableSeg(si)
	s.recs = append(s.recs, r)
	p.n++
}

// --- recycling ------------------------------------------------------------

// Free lists of storage released pools owned exclusively, drawn from
// by writableSeg, appendRecord, appendSpan and reindex. They hold weak
// pointers (package recycle), so a garbage collection still frees
// whatever no pool has taken back. Chunks are kept per geometric size
// class and indexes per power-of-two size, so a taker gets exactly the
// size it would have allocated.
var (
	freeSegs   recycle.List[segment]
	freeChunks [chunkClasses]recycle.List[[]byte]
	freeIdx    [32]recycle.List[[]int32] // by log2 of the slot count
)

// chunkClasses counts the chunk sizes appendSpan opens other than
// oversize ones: minChunk grown 8x at a time, capped at chunkSize.
const chunkClasses = 4

// chunkClass returns the free-list class of a chunk size, or -1 for an
// oversize chunk, which is never recycled.
func chunkClass(size int) int {
	for k := 0; k < chunkClasses; k++ {
		if size == min(minChunk<<(growShift*k), chunkSize) {
			return k
		}
	}
	return -1
}

// newSeg returns an empty segment owned by epoch gen, recycled when one
// is free.
func newSeg(gen uint64) *segment {
	s := freeSegs.Get()
	if s == nil {
		s = new(segment)
	}
	s.gen, s.recs = gen, s.recs[:0]
	return s
}

// newChunk returns an arena chunk of size bytes, recycled when one is
// free. Its bytes are stale; appendSpan reads only what it wrote.
func newChunk(size int) []byte {
	if k := chunkClass(size); k >= 0 {
		if b := freeChunks[k].Get(); b != nil {
			return *b
		}
	}
	return make([]byte, size)
}

// newIdx returns a zeroed species index of size slots (a power of two).
func newIdx(size int) []int32 {
	if b := freeIdx[bits.TrailingZeros(uint(size))].Get(); b != nil {
		clear(*b)
		return *b
	}
	return make([]int32, size)
}

// Release empties the pool and hands the storage it owns exclusively
// to the free lists that later pools draw from: the record segments
// and arena chunks stamped with its current write epoch, and its
// species index. Everything written before the pool's latest Clone is
// shared with a snapshot and stays where it is. Release is for a pool
// whose life has ended, such as a reaction's amplified product once the
// reaction is read out: every PackedSeq view taken from the pool ends
// with it, as the released bytes may be overwritten by any other pool.
// It must not race with any other use of the pool.
func (p *Pool) Release() {
	g := p.gen.Load()
	for _, s := range p.segs {
		if s.gen == g {
			freeSegs.Put(s)
		}
	}
	for _, c := range p.chunks {
		if k := chunkClass(len(c.b)); c.gen == g && k >= 0 {
			freeChunks[k].Put(&c.b)
		}
	}
	if idx := p.idx; len(idx) > 0 {
		freeIdx[bits.TrailingZeros(uint(len(idx)))].Put(&idx)
	}
	p.chunks, p.tail, p.grown, p.segs, p.n = nil, 0, 0, nil, 0
	p.parts, p.partIdx, p.idx, p.idxUsed = nil, nil, nil, 0
	p.total.Store(0)
	p.totalDirty.Store(false)
	p.shared.Store(false)
	p.rev++
}

// --- species index over arena spans --------------------------------------

// hashKey hashes a packed span plus its len%4 marker (FNV-1a), the same
// discriminator dna.AppendPacked uses, so distinct sequences never
// collide as keys.
func hashKey(b []byte, marker byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return (h ^ uint64(marker)) * 1099511628211
}

// find returns the index of the species whose packed bytes and base
// count match, or -1.
func (p *Pool) find(b []byte, n int) int {
	if len(p.idx) == 0 {
		return -1
	}
	mask := uint64(len(p.idx) - 1)
	for j := hashKey(b, byte(n&3)) & mask; ; j = (j + 1) & mask {
		v := p.idx[j]
		if v == 0 {
			return -1
		}
		r := p.rec(int(v - 1))
		if int(r.n) == n && bytes.Equal(p.span(r), b) {
			return int(v - 1)
		}
	}
}

// insertIdx inserts record i into the index; the caller has ensured
// capacity.
func (p *Pool) insertIdx(i int) {
	r := p.rec(i)
	mask := uint64(len(p.idx) - 1)
	j := hashKey(p.span(r), byte(r.n&3)) & mask
	for p.idx[j] != 0 {
		j = (j + 1) & mask
	}
	p.idx[j] = int32(i + 1)
	p.idxUsed++
}

// reindex rebuilds the open-addressed index sized for the current
// record count plus one insert, at most 3/4 full.
func (p *Pool) reindex() {
	size := 16
	for size*3 < (p.n+1)*4 {
		size *= 2
	}
	p.idx = newIdx(size)
	p.idxUsed = 0
	for i := 0; i < p.n; i++ {
		p.insertIdx(i)
	}
}

// --- partition interning --------------------------------------------------

func (p *Pool) partName(id uint32) string {
	if int(id) < len(p.parts) {
		return p.parts[id]
	}
	return ""
}

func (p *Pool) partID(name string) uint32 {
	if name == "" {
		return 0
	}
	if p.partIdx == nil {
		p.partIdx = make(map[string]uint32, len(p.parts)+2)
		for i, s := range p.parts {
			p.partIdx[s] = uint32(i)
		}
	}
	if len(p.parts) == 0 {
		p.parts = append(p.parts, "")
		p.partIdx[""] = 0
	}
	if id, ok := p.partIdx[name]; ok {
		return id
	}
	id := uint32(len(p.parts))
	p.parts = append(p.parts, name)
	p.partIdx[name] = id
	return id
}

// --- mutation -------------------------------------------------------------

// Add inserts abundance copies of seq with the given provenance. If an
// identical sequence already exists its abundance grows; the original
// metadata is retained (first writer wins), matching physical identity of
// molecules with the same sequence. The packed-key probe allocates only
// when the sequence is new to the pool.
func (p *Pool) Add(seq dna.Seq, abundance float64, meta Meta) {
	p.AddIndex(seq, abundance, meta)
}

// AddIndex is Add returning the index of the species that received the
// abundance (-1 when a non-positive abundance made the call a no-op).
// Callers that re-add the same sequence repeatedly — the PCR apply
// phase growing a misprime product every cycle — keep the index and
// switch to Boost, skipping the per-call packing and probe.
func (p *Pool) AddIndex(seq dna.Seq, abundance float64, meta Meta) int {
	if abundance <= 0 {
		return -1
	}
	p.init()
	p.keyBuf = dna.AppendPacked(p.keyBuf[:0], seq)
	return p.add(p.keyBuf[:len(p.keyBuf)-1], len(seq), abundance, meta)
}

// AddPacked is AddIndex for an already-packed sequence — typically a
// zero-copy PackedSeq view of another pool — probing and, on a miss,
// copying the packed bytes arena-to-arena without ever unpacking.
func (p *Pool) AddPacked(seq dna.Packed, abundance float64, meta Meta) int {
	if abundance <= 0 {
		return -1
	}
	p.init()
	return p.add(seq.Bytes(), seq.Len(), abundance, meta)
}

// add is the shared insert path; key holds the packed bytes (no
// marker) of a sequence of n bases.
func (p *Pool) add(key []byte, n int, abundance float64, meta Meta) int {
	p.ensureOwned()
	p.rev++
	if p.idx == nil {
		p.reindex()
	}
	if i := p.find(key, n); i >= 0 {
		s := p.writableSeg(i >> segShift)
		s.recs[i&segMask].abundance += abundance
		p.totalDirty.Store(true)
		return i
	}
	if (p.idxUsed+1)*4 > len(p.idx)*3 {
		p.reindex()
	}
	off := p.appendSpan(key)
	p.appendRecord(record{
		off: off, n: int32(n), abundance: abundance,
		part:  p.partID(meta.Partition),
		block: int32(meta.Block), version: int32(meta.Version),
		intra: int32(meta.Intra), origin: int32(meta.OriginBlock),
		misprimed: meta.Misprimed,
	})
	p.insertIdx(p.n - 1)
	if !p.totalDirty.Load() {
		p.total.Store(math.Float64bits(math.Float64frombits(p.total.Load()) + abundance))
	}
	return p.n - 1
}

// Boost adds amount to the abundance of the species at index i. It is
// the in-place growth operation of the PCR apply phase; routing it
// through the pool keeps Version tracking sound.
func (p *Pool) Boost(i int, amount float64) {
	p.ensureOwned()
	p.rev++
	s := p.writableSeg(i >> segShift)
	s.recs[i&segMask].abundance += amount
	p.totalDirty.Store(true)
}

// SetAbundance overwrites the abundance of the species at index i.
func (p *Pool) SetAbundance(i int, v float64) {
	p.ensureOwned()
	p.rev++
	s := p.writableSeg(i >> segShift)
	s.recs[i&segMask].abundance = v
	p.totalDirty.Store(true)
}

// Scale multiplies every abundance by factor, modeling dilution
// (factor < 1) or uniform amplification (factor > 1).
func (p *Pool) Scale(factor float64) {
	if factor < 0 {
		factor = 0
	}
	p.init()
	p.ensureOwned()
	p.rev++
	for si := range p.segs {
		s := p.writableSeg(si)
		for j := range s.recs {
			s.recs[j].abundance *= factor
		}
	}
	p.totalDirty.Store(true)
}

// MixInto adds every species of src, scaled by factor, into p. It models
// pipetting a volume of one sample into another. Sequences move as
// packed arena-to-arena copies; nothing is unpacked.
func (p *Pool) MixInto(src *Pool, factor float64) {
	n := src.Len()
	for i := 0; i < n; i++ {
		r := src.rec(i)
		a := r.abundance * factor
		if a <= 0 {
			continue
		}
		p.init()
		p.add(src.span(r), int(r.n), a, src.MetaAt(i))
	}
}

// --- reading --------------------------------------------------------------

// Len returns the number of distinct species.
func (p *Pool) Len() int { return p.n }

// Abundance returns the abundance of the species at index i.
func (p *Pool) Abundance(i int) float64 { return p.rec(i).abundance }

// SeqLen returns the base count of the species at index i.
func (p *Pool) SeqLen(i int) int { return int(p.rec(i).n) }

// PackedSeq returns a zero-copy packed view of the species at index i.
// The view aliases the pool's arena and stays valid (and immutable) for
// the life of the pool and of every snapshot sharing the arena.
func (p *Pool) PackedSeq(i int) dna.Packed {
	r := p.rec(i)
	return dna.PackedView(p.span(r), int(r.n))
}

// AppendSeq appends the bases of the species at index i to dst,
// decoding straight from the arena. Callers sampling many species reuse
// one buffer: seq = p.AppendSeq(seq[:0], i).
func (p *Pool) AppendSeq(dst dna.Seq, i int) dna.Seq {
	r := p.rec(i)
	return dna.PackedView(p.span(r), int(r.n)).AppendRange(dst, 0, int(r.n))
}

// SeqAt returns a freshly allocated copy of the species' sequence.
func (p *Pool) SeqAt(i int) dna.Seq { return p.AppendSeq(nil, i) }

// MetaAt returns the provenance of the species at index i.
func (p *Pool) MetaAt(i int) Meta {
	r := p.rec(i)
	return Meta{
		Partition: p.partName(r.part),
		Block:     int(r.block), Version: int(r.version), Intra: int(r.intra),
		Misprimed: r.misprimed, OriginBlock: int(r.origin),
	}
}

// SpeciesAt returns the species at index i as a self-contained value
// (the sequence is copied out of the arena).
func (p *Pool) SpeciesAt(i int) Species {
	return Species{Seq: p.SeqAt(i), Abundance: p.Abundance(i), Meta: p.MetaAt(i)}
}

// Total returns the total molecule count across species. The sum is
// memoized: appends extend it exactly, other mutations mark it dirty
// and the next call recomputes the same left-fold a full scan computes.
func (p *Pool) Total() float64 {
	if p.totalDirty.Load() {
		t := 0.0
		for _, s := range p.segs {
			for i := range s.recs {
				t += s.recs[i].abundance
			}
		}
		// Concurrent readers may both recompute; they store the same
		// bits, so the race is benign and the answer deterministic.
		p.total.Store(math.Float64bits(t))
		p.totalDirty.Store(false)
	}
	return math.Float64frombits(p.total.Load())
}

// Clone returns a copy-on-write snapshot: O(1) in time and allocation
// regardless of pool size. Parent and child share the arena and record
// segments behind fresh write epochs; whichever side mutates first
// copies only the segments it touches, so the two are fully isolated.
// The species index is not shared — the child rebuilds it on its first
// Add.
func (p *Pool) Clone() *Pool {
	p.init()
	// Fresh epochs on BOTH sides retire the shared tail chunk and mark
	// every segment foreign, and shared=true on both sides forces each
	// to privatize its slice headers before its first write. All stores
	// here are atomic, so concurrent Clones never race.
	p.gen.Store(lastEpoch.Add(1))
	p.shared.Store(true)
	c := &Pool{
		chunks: p.chunks,
		tail:   p.tail,
		segs:   p.segs,
		n:      p.n,
		parts:  p.parts,
		id:     lastPoolID.Add(1),
	}
	c.shared.Store(true)
	c.gen.Store(lastEpoch.Add(1))
	c.total.Store(p.total.Load())
	c.totalDirty.Store(p.totalDirty.Load())
	return c
}

// Digest hashes the pool's full physical state — species order,
// sequences, exact abundance bits, provenance — the byte-identity
// oracle behind the simulator's determinism contracts. blockstore's
// TubeDigest and the experiments' pool comparisons share this one
// encoding, so the oracles can never drift apart. It must not race
// with concurrent mutations.
func (p *Pool) Digest() [32]byte {
	h := sha256.New()
	var word [8]byte
	var text []byte
	for i := 0; i < p.n; i++ {
		r := p.rec(i)
		text = dna.PackedView(p.span(r), int(r.n)).AppendText(text[:0])
		h.Write(text)
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(r.abundance))
		h.Write(word[:])
		fmt.Fprintf(h, "%s/%d/%d/%d/%d/%v",
			p.partName(r.part), r.block, r.version,
			r.intra, r.origin, r.misprimed)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Measure returns a noisy reading of the pool's total concentration,
// modeling a nanodrop measurement with the given coefficient of
// variation. A cv of 0 returns the exact total.
func (p *Pool) Measure(r *rng.Source, cv float64) float64 {
	t := p.Total()
	if cv <= 0 {
		return t
	}
	v := t * (1 + cv*r.NormFloat64())
	if v < 0 {
		v = 0
	}
	return v
}

// AbundanceByBlock aggregates abundance per OriginBlock for species of
// the given partition, the quantity plotted in Figures 9 and 10.
func (p *Pool) AbundanceByBlock(partition string) map[int]float64 {
	out := make(map[int]float64)
	pid := -1
	for i, s := range p.parts {
		if s == partition {
			pid = i
			break
		}
	}
	if pid < 0 {
		if partition != "" {
			return out
		}
		pid = 0 // the implicit empty-name partition
	}
	for i := 0; i < p.n; i++ {
		r := p.rec(i)
		if int(r.part) == pid {
			out[int(r.origin)] += r.abundance
		}
	}
	return out
}

// TopSpecies returns the n most abundant species, most abundant first,
// as materialized values. Equal-abundance species keep their pool
// insertion order, so experiment output is deterministic. Selection is
// a bounded min-heap — O(len log n), not a full sort — so asking for a
// handful of leaders out of 10^6 species stays cheap.
func (p *Pool) TopSpecies(n int) []Species {
	if n > p.n {
		n = p.n
	}
	if n <= 0 {
		return nil
	}
	// worse orders the heap with the weakest candidate at the root:
	// lower abundance, or at equal abundance a later insertion.
	worse := func(a, b int32) bool {
		aa, ab := p.rec(int(a)).abundance, p.rec(int(b)).abundance
		if aa != ab {
			return aa < ab
		}
		return a > b
	}
	h := make([]int32, 0, n)
	down := func() {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			w := i
			if l < len(h) && worse(h[l], h[w]) {
				w = l
			}
			if r < len(h) && worse(h[r], h[w]) {
				w = r
			}
			if w == i {
				return
			}
			h[i], h[w] = h[w], h[i]
			i = w
		}
	}
	for i := 0; i < p.n; i++ {
		c := int32(i)
		if len(h) < n {
			h = append(h, c)
			for j := len(h) - 1; j > 0; {
				parent := (j - 1) / 2
				if !worse(h[j], h[parent]) {
					break
				}
				h[j], h[parent] = h[parent], h[j]
				j = parent
			}
			continue
		}
		if worse(h[0], c) { // candidate beats the current weakest
			h[0] = c
			down()
		}
	}
	sort.Slice(h, func(i, j int) bool { return worse(h[j], h[i]) })
	out := make([]Species, len(h))
	for i, ri := range h {
		out[i] = p.SpeciesAt(int(ri))
	}
	return out
}

// SynthesisOrder describes one strand sent to a synthesis vendor.
type SynthesisOrder struct {
	Seq  dna.Seq
	Meta Meta
}

// SynthesisParams models a synthesis vendor's output characteristics.
type SynthesisParams struct {
	// CopiesPerStrand is the mean number of physical copies produced per
	// ordered sequence. Vendors differ enormously: the paper's IDT update
	// pool was 50000x more concentrated than the Twist pool.
	CopiesPerStrand float64
	// SkewSigma is the sigma of the lognormal copy-number variation
	// across strands. Calibrated so that natural bias stays "within 2x"
	// as in Figure 9a (sigma ~0.18 gives a ~2x max/min ratio over ~10^4
	// strands).
	SkewSigma float64
}

// DefaultTwist returns synthesis parameters modeled on the paper's main
// (Twist BioScience) pool.
func DefaultTwist() SynthesisParams {
	return SynthesisParams{CopiesPerStrand: 1e4, SkewSigma: 0.10}
}

// DefaultIDT returns synthesis parameters modeled on the paper's update
// (IDT) pool: 50000x more concentrated than the Twist pool.
func DefaultIDT() SynthesisParams {
	return SynthesisParams{CopiesPerStrand: 5e8, SkewSigma: 0.10}
}

// Synthesize produces a pool from strand orders. Copy numbers vary
// lognormally around the mean. Per-copy synthesis errors are not
// materialized as separate species (that would create millions of
// near-duplicate species); instead the sequencing simulator injects the
// combined synthesis+sequencing error rate per read, which produces the
// same observed read error distribution.
func Synthesize(r *rng.Source, orders []SynthesisOrder, params SynthesisParams) (*Pool, error) {
	if params.CopiesPerStrand <= 0 {
		return nil, fmt.Errorf("pool: non-positive copies per strand")
	}
	p := New()
	for _, o := range orders {
		copies := params.CopiesPerStrand * r.LogNormal(0, params.SkewSigma)
		p.Add(o.Seq, copies, o.Meta)
	}
	return p, nil
}
