package binding

import (
	"runtime"
	"sync"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
)

// randSeq fabricates a random sequence of length n.
func randSeq(r *rng.Source, n int) dna.Seq {
	s := make(dna.Seq, n)
	for i := range s {
		s[i] = dna.Base(r.Intn(4))
	}
	return s
}

// mutate returns a copy of s with k random substitutions, producing
// templates near (but not at) binding distance 0.
func mutate(r *rng.Source, s dna.Seq, k int) dna.Seq {
	out := s.Clone()
	for i := 0; i < k; i++ {
		out[r.Intn(len(out))] = dna.Base(r.Intn(4))
	}
	return out
}

// testWorkload builds primer pairs and templates that exercise every
// binding state: exact matches, near matches, and rejections.
func testWorkload(seed uint64) (pairs []Pair, templates []dna.Seq) {
	r := rng.New(seed)
	for i := 0; i < 3; i++ {
		pairs = append(pairs, Pair{Fwd: randSeq(r, 20+i*4), Rev: randSeq(r, 20)})
	}
	for _, p := range pairs {
		body := randSeq(r, 100)
		exact := dna.Concat(p.Fwd, body, p.Rev)
		templates = append(templates, exact, mutate(r, exact, 2), mutate(r, exact, 8))
	}
	for i := 0; i < 4; i++ {
		templates = append(templates, randSeq(r, 150)) // unrelated
	}
	return pairs, templates
}

// packAll packs templates into the zero-copy form Bind consumes.
func packAll(ts []dna.Seq) []dna.Packed {
	out := make([]dna.Packed, len(ts))
	for i, t := range ts {
		out[i] = dna.Pack(t)
	}
	return out
}

// templatePool materializes the templates as a pool, giving them the
// species indexes a reaction would see.
func templatePool(templates []dna.Seq) *pool.Pool {
	p := pool.New()
	for i, t := range templates {
		p.Add(t, float64(i+1), pool.Meta{Block: i})
	}
	return p
}

// TestCachedMatchesDirect pins the cache's only contract that matters:
// for every (pair, species), the cached provider returns exactly the
// binding the Direct provider computes — on the first (miss) pass, the
// row-hit pass over the same pool, and a content-hit pass over a clone
// of the pool (fresh identity, same sequences).
func TestCachedMatchesDirect(t *testing.T) {
	pairs, templates := testWorkload(1)
	pts := packAll(templates)
	p := templatePool(templates)
	const maxDist = 5
	direct := Direct{}.Begin(pairs, maxDist, p)
	cache := NewCache(0)
	pools := []*pool.Pool{p, p, p.Clone()}
	for pass, pp := range pools {
		rx := cache.Begin(pairs, maxDist, pp)
		for pi := range pairs {
			for ti, tmpl := range pts {
				want := direct.Bind(pi, ti, tmpl)
				got := rx.Bind(pi, ti, tmpl)
				if got != want {
					t.Fatalf("pass %d pair %d template %d: cached %+v, direct %+v",
						pass, pi, ti, got, want)
				}
				if got.State == Unknown {
					t.Fatalf("Bind returned Unknown state")
				}
			}
		}
	}
	st := cache.Stats()
	if st.RowHits == 0 {
		t.Error("second pass over the same pool recorded no row hits")
	}
	if st.Hits == 0 {
		t.Error("pass over the clone recorded no content hits")
	}
	if st.Misses == 0 || st.Entries == 0 {
		t.Errorf("stats misses=%d entries=%d, want both > 0", st.Misses, st.Entries)
	}
	if got := st.HitRate(); got <= 0.5 {
		t.Errorf("hit rate %.2f after two warm passes, want > 0.5", got)
	}
}

// TestBudgetIsPartOfTheKey guards the subtle invalidation hazard: a
// None verdict at a small budget must not be served for a larger one —
// in the content store or in the identity rows.
func TestBudgetIsPartOfTheKey(t *testing.T) {
	r := rng.New(7)
	p := Pair{Fwd: randSeq(r, 20), Rev: randSeq(r, 20)}
	tmpl := dna.Concat(mutate(r, p.Fwd, 3), randSeq(r, 100), p.Rev)
	pl := templatePool([]dna.Seq{tmpl})
	pt := dna.Pack(tmpl)
	cache := NewCache(0)
	tight := cache.Begin([]Pair{p}, 1, pl).Bind(0, 0, pt)
	loose := cache.Begin([]Pair{p}, 8, pl).Bind(0, 0, pt)
	wantTight := Direct{}.Begin([]Pair{p}, 1, pl).Bind(0, 0, pt)
	wantLoose := Direct{}.Begin([]Pair{p}, 8, pl).Bind(0, 0, pt)
	if tight != wantTight {
		t.Errorf("budget 1: cached %+v, direct %+v", tight, wantTight)
	}
	if loose != wantLoose {
		t.Errorf("budget 8: cached %+v, direct %+v", loose, wantLoose)
	}
	if tight.State != None || loose.State != OK {
		t.Fatalf("workload does not separate budgets: tight %+v loose %+v", tight, loose)
	}
}

// TestPackBindingRoundTrip pins the packed row-slot codec, including
// that no real binding packs to the reserved zero word.
func TestPackBindingRoundTrip(t *testing.T) {
	cases := []Binding{
		{State: None},
		{State: OK},
		{State: OK, Dist: 5, End: 31},
		{State: OK, Dist: 0x3fffffff, End: 1<<31 - 1},
	}
	for _, b := range cases {
		x := packBinding(b)
		if x == 0 {
			t.Errorf("%+v packs to the reserved zero word", b)
		}
		if got := unpackBinding(x); got != b {
			t.Errorf("round trip %+v -> %+v", b, got)
		}
	}
}

// TestEvictionUnderPressure runs a working set far above a tiny budget
// and checks that answers stay correct (evicted entries are simply
// recomputed) and that the clock hand actually evicts. Pools are
// cloned per pass so every lookup exercises the content store, not the
// identity rows.
func TestEvictionUnderPressure(t *testing.T) {
	pairs, templates := testWorkload(3)
	r := rng.New(9)
	for i := 0; i < 400; i++ {
		templates = append(templates, randSeq(r, 150))
	}
	pts := packAll(templates)
	p := templatePool(templates)
	const maxDist = 5
	cache := NewCache(64) // 1 content entry per shard
	direct := Direct{}.Begin(pairs, maxDist, p)
	for pass := 0; pass < 2; pass++ {
		rx := cache.Begin(pairs, maxDist, p.Clone())
		for pi := range pairs {
			for ti, tmpl := range pts {
				if got, want := rx.Bind(pi, ti, tmpl), direct.Bind(pi, ti, tmpl); got != want {
					t.Fatalf("pass %d pair %d template %d under pressure: %+v want %+v",
						pass, pi, ti, got, want)
				}
			}
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions with %d lookups against a 64-entry budget", st.Hits+st.Misses)
	}
	if st.Entries > 64 {
		t.Errorf("resident entries %d exceed the 64-entry budget", st.Entries)
	}
}

// TestRowEviction cycles more pool identities through one cache than
// the row budget admits and checks answers stay correct throughout.
func TestRowEviction(t *testing.T) {
	pairs, templates := testWorkload(21)
	pts := packAll(templates)
	const maxDist = 5
	base := templatePool(templates)
	direct := Direct{}.Begin(pairs, maxDist, base)
	cache := NewCache(0)
	for i := 0; i < 3*maxRows; i++ {
		pp := base.Clone()
		rx := cache.Begin(pairs, maxDist, pp)
		for ti, tmpl := range pts {
			if got, want := rx.Bind(0, ti, tmpl), direct.Bind(0, ti, tmpl); got != want {
				t.Fatalf("identity %d template %d: %+v want %+v", i, ti, got, want)
			}
		}
	}
	cache.rowMu.Lock()
	n := len(cache.rows)
	cache.rowMu.Unlock()
	if n > maxRows {
		t.Errorf("%d resident rows exceed the %d-row budget", n, maxRows)
	}
}

// TestPatternMemo checks that Begin reuses compiled patterns across
// reactions and that the decode-facing Pattern hook shares the memo.
func TestPatternMemo(t *testing.T) {
	pairs, templates := testWorkload(5)
	p := templatePool(templates)
	cache := NewCache(0)
	cache.Begin(pairs, 5, p)
	before := cache.Stats()
	cache.Begin(pairs, 5, p)
	after := cache.Stats()
	if after.PatternMisses != before.PatternMisses {
		t.Errorf("second Begin compiled %d new patterns", after.PatternMisses-before.PatternMisses)
	}
	if after.PatternHits <= before.PatternHits {
		t.Error("second Begin did not hit the pattern memo")
	}
	p1 := cache.Pattern(pairs[0].Fwd)
	p2 := cache.Pattern(pairs[0].Fwd)
	if p1 != p2 {
		t.Error("Pattern returned distinct compilations for one sequence")
	}
}

// TestConcurrentBind hammers one cache from many goroutines (the shape
// of a fanned range read: several reactions over one tube identity,
// plus clones) and cross-checks every answer against Direct. Run with
// -race.
func TestConcurrentBind(t *testing.T) {
	pairs, templates := testWorkload(11)
	pts := packAll(templates)
	p := templatePool(templates)
	const maxDist = 5
	direct := Direct{}.Begin(pairs, maxDist, p)
	want := make([][]Binding, len(pairs))
	for pi := range pairs {
		want[pi] = make([]Binding, len(templates))
		for ti, tmpl := range pts {
			want[pi][ti] = direct.Bind(pi, ti, tmpl)
		}
	}
	cache := NewCache(128) // small enough to evict under the load below
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			input := p
			if g%2 == 1 {
				input = p.Clone() // exercise row growth + content path together
			}
			rx := cache.Begin(pairs, maxDist, input)
			for rep := 0; rep < 20; rep++ {
				for pi := range pairs {
					for ti, tmpl := range pts {
						if got := rx.Bind(pi, ti, tmpl); got != want[pi][ti] {
							t.Errorf("goroutine %d: pair %d template %d mismatch", g, pi, ti)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDirectBindAllocs pins the zero-allocation property of the
// alignment itself, the innermost loop of every reaction (moved here
// from package pcr with the binding code).
func TestDirectBindAllocs(t *testing.T) {
	pairs, templates := testWorkload(13)
	rx := Direct{}.Begin(pairs, 5, nil)
	tmpl := dna.Pack(templates[0])
	far := dna.Pack(templates[len(templates)-1])
	if avg := testing.AllocsPerRun(200, func() { rx.Bind(0, 0, tmpl) }); avg != 0 {
		t.Errorf("direct bind (match) allocates %.1f times per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { rx.Bind(0, 0, far) }); avg != 0 {
		t.Errorf("direct bind (reject) allocates %.1f times per call, want 0", avg)
	}
}

// TestCachedHitAllocs pins the warm paths: neither a row hit (atomic
// load) nor a content hit (an index probe over the template's packed
// bytes in place) may allocate.
func TestCachedHitAllocs(t *testing.T) {
	pairs, templates := testWorkload(17)
	p := templatePool(templates)
	cache := NewCache(0)
	rx := cache.Begin(pairs, 5, p)
	tmpl := dna.Pack(templates[0])
	rx.Bind(0, 0, tmpl) // populate row + content store
	if avg := testing.AllocsPerRun(200, func() { rx.Bind(0, 0, tmpl) }); avg != 0 {
		t.Errorf("row hit allocates %.1f times per call, want 0", avg)
	}
	clone := cache.Begin(pairs, 5, p.Clone()).(*cachedReaction)
	clone.Bind(0, 0, tmpl) // fills the clone's row from the content store
	rowless := cache.Begin(pairs, 5, nil)
	if avg := testing.AllocsPerRun(200, func() { rowless.Bind(0, 0, tmpl) }); avg != 0 {
		t.Errorf("content hit allocates %.1f times per call, want 0", avg)
	}
}

// BenchmarkBindRowHit / BenchmarkBindContentHit / BenchmarkBindDirect
// report the per-binding cost of the three regimes: an identity-row
// hit, a content-store hit, and a fresh alignment.
func BenchmarkBindRowHit(b *testing.B) {
	pairs, templates := testWorkload(19)
	pts := packAll(templates)
	p := templatePool(templates)
	cache := NewCache(0)
	rx := cache.Begin(pairs, 5, p)
	for ti, tmpl := range pts {
		rx.Bind(0, ti, tmpl)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % len(pts)
		rx.Bind(0, ti, pts[ti])
	}
}

func BenchmarkBindContentHit(b *testing.B) {
	pairs, templates := testWorkload(19)
	pts := packAll(templates)
	p := templatePool(templates)
	cache := NewCache(0)
	warm := cache.Begin(pairs, 5, p)
	for ti, tmpl := range pts {
		warm.Bind(0, ti, tmpl)
	}
	rx := cache.Begin(pairs, 5, nil) // no identity: every hit is a content probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % len(pts)
		rx.Bind(0, ti, pts[ti])
	}
}

func BenchmarkBindDirect(b *testing.B) {
	pairs, templates := testWorkload(19)
	pts := packAll(templates)
	rx := Direct{}.Begin(pairs, 5, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti := i % len(pts)
		rx.Bind(0, ti, pts[ti])
	}
}

// TestEvictionVariableKeys cycles templates of 130–170 bases (the
// spread decay indels give a tube) through pairs of different
// elongation lengths at ten times a small entry budget, so victims and
// their replacements rarely share a key length; a few templates are
// longer than an arena chunk, and one is empty. Answers must equal
// Direct, residency must stay within budget, and each shard's arena
// must stay within twice its live key bytes.
func TestEvictionVariableKeys(t *testing.T) {
	r := rng.New(29)
	var pairs []Pair
	for _, n := range []int{20, 26, 33} {
		pairs = append(pairs, Pair{Fwd: randSeq(r, n), Rev: randSeq(r, 20)})
	}
	var templates []dna.Seq
	for i := 0; i < 1200; i++ {
		p := pairs[i%len(pairs)]
		n := 130 + r.Intn(41)
		if i%300 == 299 {
			n = 4*chunkSize + 100
		}
		body := randSeq(r, n-len(p.Fwd)-len(p.Rev))
		tmpl := dna.Concat(p.Fwd, body, p.Rev)
		if i%4 == 3 {
			tmpl = mutate(r, tmpl, 3)
		}
		templates = append(templates, tmpl)
	}
	templates = append(templates, dna.Seq{})
	pts := packAll(templates)
	const budget, maxDist = 256, 5
	direct := Direct{}.Begin(pairs, maxDist, nil)
	cache := NewCache(budget)
	rx := cache.Begin(pairs, maxDist, nil) // rowless: every Bind probes the content store
	lookups := 0
	for pass := 0; pass < 2; pass++ {
		for ti, tmpl := range pts {
			for pi := range pairs {
				if got, want := rx.Bind(pi, ti, tmpl), direct.Bind(pi, ti, tmpl); got != want {
					t.Fatalf("pass %d pair %d template %d: %+v want %+v", pass, pi, ti, got, want)
				}
				lookups++
			}
			if ti%100 == 0 {
				checkShards(t, cache)
			}
		}
	}
	if lookups < 10*budget {
		t.Fatalf("only %d lookups against a %d-entry budget", lookups, budget)
	}
	st := cache.Stats()
	if st.Entries > budget {
		t.Errorf("resident entries %d exceed the %d-entry budget", st.Entries, budget)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under a 10x working set")
	}
	checkShards(t, cache)
}

// checkShards verifies every shard's structural invariants: the arena
// holds at most twice the live key bytes, and the index links each
// resident entry exactly once.
func checkShards(t *testing.T, c *Cache) {
	t.Helper()
	for s := range c.shards {
		sh := &c.shards[s]
		live, arena := 0, 0
		for i := 0; i < sh.n; i++ {
			live += len(span(sh.chunks, sh.ent(i)))
		}
		for _, c := range sh.chunks {
			arena += len(c)
		}
		if arena != sh.used || arena-sh.dead != live || arena > 2*live {
			t.Fatalf("shard %d: arena %d bytes (%d counted), %d dead, %d live", s, arena, sh.used, sh.dead, live)
		}
		linked := 0
		for _, v := range sh.idx {
			if v != 0 {
				i := int(v - 1)
				e := sh.ent(i)
				if sh.find(sh.hashOf(i), e.pair, dna.PackedView(span(sh.chunks, e), int(e.n))) != i {
					t.Fatalf("shard %d: entry %d unreachable from its hash", s, i)
				}
				linked++
			}
		}
		if linked != sh.n {
			t.Fatalf("shard %d: %d index links for %d entries", s, linked, sh.n)
		}
	}
}

// contentWorkload returns pairs and n distinct random 150-base packed
// templates held in one backing array, so the templates themselves cost
// the heap nothing per entry beyond their shared arena.
func contentWorkload(seed uint64, npairs, n int) ([]Pair, []dna.Packed) {
	r := rng.New(seed)
	pairs := make([]Pair, npairs)
	for i := range pairs {
		pairs[i] = Pair{Fwd: randSeq(r, 20+i), Rev: randSeq(r, 20)}
	}
	const bases = 150
	nb := (bases + 3) / 4
	arena := make([]byte, 0, n*nb)
	seq := make(dna.Seq, bases)
	for i := 0; i < n; i++ {
		for j := range seq {
			seq[j] = dna.Base(r.Intn(4))
		}
		arena = dna.AppendPackedBytes(arena, seq)
	}
	pts := make([]dna.Packed, n)
	for i := range pts {
		pts[i] = dna.PackedView(arena[i*nb:(i+1)*nb], bases)
	}
	return pairs, pts
}

// TestContentStoreBytesPerEntry pins the content store's memory: the
// live heap it adds per resident (pair, 150-base template) entry, with
// the templates and primers held live on both sides of the measurement.
func TestContentStoreBytesPerEntry(t *testing.T) {
	pairs, pts := contentWorkload(31, 4, 25000)
	cache := NewCache(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rx := cache.Begin(pairs, 5, nil)
	for pi := range pairs {
		for ti, tmpl := range pts {
			rx.Bind(pi, ti, tmpl)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pts)
	entries := cache.Stats().Entries
	if entries != len(pairs)*len(pts) || entries < 100000 {
		t.Fatalf("%d resident entries for %d distinct keys, want all of them and >= 100000",
			entries, len(pairs)*len(pts))
	}
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(entries)
	t.Logf("%d entries, %.1f live heap bytes per entry", entries, per)
	if per > 80 {
		t.Errorf("content store costs %.1f bytes per entry, want <= 80", per)
	}
}

// TestHashMatchNeverAnswers pins full-key comparison: a probe for a
// different template that starts at a resident entry's slot — same
// pair, same length, same hash — must miss.
func TestHashMatchNeverAnswers(t *testing.T) {
	r := rng.New(43)
	a, b := dna.Pack(randSeq(r, 150)), dna.Pack(randSeq(r, 150))
	want := Binding{State: OK, Dist: 1, End: 20}
	c := NewCache(0)
	h := hashKey(0, a)
	c.put(h, 0, a, want)
	if got, ok := c.get(h, 0, b); ok {
		t.Fatalf("a hash match answered %+v for a different template", got)
	}
	if got, ok := c.get(h, 0, a); !ok || got != want {
		t.Fatalf("resident key: %+v, %v; want %+v", got, ok, want)
	}
}

// TestContentMissAllocs pins the cold path: a content-store miss — the
// alignment plus the put into a shard with spare capacity — allocates
// nothing, amortized over many distinct keys.
func TestContentMissAllocs(t *testing.T) {
	pairs, pts := contentWorkload(37, 2, 20000)
	cache := NewCache(0)
	warm := cache.Begin(pairs[:1], 5, nil)
	for ti, tmpl := range pts {
		warm.Bind(0, ti, tmpl) // grow every shard's slices
	}
	rx := cache.Begin(pairs[1:], 5, nil)
	next := 0
	avg := testing.AllocsPerRun(2000, func() {
		rx.Bind(0, next, pts[next])
		next++
	})
	if st := cache.Stats(); st.Hits != 0 {
		t.Fatalf("%d content hits; every measured Bind must miss", st.Hits)
	}
	if avg != 0 {
		t.Errorf("content miss+put allocates %.1f times per call, want 0", avg)
	}
}
