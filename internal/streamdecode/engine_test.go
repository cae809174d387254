package streamdecode

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/parallel"
	"dnastore/internal/rng"
)

var (
	fwdP = dna.MustFromString("ACGTACGTACGTACGTACGA")
	revP = dna.MustFromString("TGCATGCATGCATGCATGCA")
)

// encoder is a minimal write path mirroring package blockstore:
// randomize, unit-encode, assemble strands.
type encoder struct {
	g    layout.Geometry
	unit *layout.UnitCodec
	tree *indextree.Tree
	rand *codec.Randomizer
}

func newEncoder(t testing.TB) *encoder {
	t.Helper()
	g := layout.PaperGeometry()
	unit, err := layout.NewUnitCodec(g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := indextree.New(5, 777)
	if err != nil {
		t.Fatal(err)
	}
	return &encoder{g: g, unit: unit, tree: tree, rand: codec.NewRandomizer(42)}
}

func (e *encoder) encodeUnit(t testing.TB, block, version int, data []byte) []dna.Seq {
	t.Helper()
	white := e.rand.Derive(decode.UnitSeed(block, version)).Apply(data)
	payloads, err := e.unit.Encode(white)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := e.tree.Encode(block)
	if err != nil {
		t.Fatal(err)
	}
	var out []dna.Seq
	for intra, p := range payloads {
		seq, err := e.g.Assemble(fwdP, revP, layout.Strand{
			Index: idx, Version: version, Intra: intra, Payload: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, seq)
	}
	return out
}

func unitData(r *rng.Source, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(r.Intn(256))
	}
	return d
}

func newPipeline(t testing.TB, e *encoder) *decode.Pipeline {
	return newPipelineWorkers(t, e, 0)
}

func newPipelineWorkers(t testing.TB, e *encoder, workers int) *decode.Pipeline {
	t.Helper()
	cfg := decode.DefaultConfig()
	cfg.Workers = workers
	p, err := decode.New(cfg, e.tree, fwdP, revP, e.rand)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oracle is the reference decode every engine path is checked against:
// the primer filter over the whole read set, cluster.Group over the
// kept reads, and decode.DecodeClusters over its clusters.
type oracle struct {
	pipe     *decode.Pipeline
	kept     []dna.Seq
	clusters [][]int
}

func newOracle(t testing.TB, pipe *decode.Pipeline, reads []dna.Seq) *oracle {
	t.Helper()
	o := &oracle{pipe: pipe}
	for _, rd := range reads {
		if pipe.Keep(rd) {
			o.kept = append(o.kept, rd)
		}
	}
	var err error
	if o.clusters, err = cluster.Group(o.kept, pipe.Config().Cluster); err != nil {
		t.Fatal(err)
	}
	return o
}

// decode decodes every visible block (target < 0) or one target.
func (o *oracle) decode(target int) (map[int]*decode.BlockResult, error) {
	return o.pipe.DecodeClusters(o.kept, o.clusters, target)
}

// block is one target's decode, wrapped up by decode.FinishBlock.
func (o *oracle) block(target int) (*decode.BlockResult, error) {
	results, err := o.decode(target)
	return decode.FinishBlock(results, err, target)
}

// decodeRows are the full-budget Decode cases the differential suites
// run: both targets at one and several pipeline workers.
var decodeRows = []struct{ workers, target int }{
	{1, -1}, {1, 17}, {4, -1}, {4, 17},
}

// poolReads builds a three-block read set for one noise regime:
// coverage noisy copies per strand, shuffled, and (for the decayed
// regime) truncated strands plus unrelated junk mixed in.
func poolReads(t testing.TB, e *encoder, r *rng.Source, rates channel.Rates, decayed bool) []dna.Seq {
	var strands []dna.Seq
	for _, block := range []int{2, 17, 40} {
		strands = append(strands, e.encodeUnit(t, block, 0, unitData(r, e.unit.DataBytes()))...)
	}
	var reads []dna.Seq
	for _, s := range strands {
		for c := 0; c < 8; c++ {
			reads = append(reads, channel.Corrupt(r, s, rates))
		}
		if decayed {
			// An aged tube: some templates have decayed to fragments.
			cut := len(s) / 2
			reads = append(reads, channel.Corrupt(r, s[:cut+r.Intn(cut)], rates))
		}
	}
	if decayed {
		for i := 0; i < 40; i++ {
			junk := make(dna.Seq, 120+r.Intn(60))
			for j := range junk {
				junk[j] = dna.Base(r.Intn(4))
			}
			reads = append(reads, junk)
		}
	}
	r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	return reads
}

// feed streams reads into the engine in uneven chunks, exercising
// cluster state carried across Add calls.
func feed(e *Engine, reads []dna.Seq, chunk int) {
	for start := 0; start < len(reads); start += chunk {
		end := start + chunk
		if end > len(reads) {
			end = len(reads)
		}
		e.Add(reads[start:end])
	}
}

// TestEngineMatchesBatch is the differential suite: across clean,
// Illumina, Nanopore, and decayed-tube regimes, and across worker
// counts, the engine's incremental cluster assignments must equal
// cluster.Group's on the filtered read set, and its finalized decode —
// streamed in chunks, or fed whole by Decode — must equal the oracle's
// result for result.
func TestEngineMatchesBatch(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	regimes := []struct {
		name    string
		rates   channel.Rates
		decayed bool
	}{
		{"clean", channel.Noiseless(), false},
		{"illumina", channel.Illumina(), false},
		{"nanopore", channel.Nanopore(), false},
		{"decayed", channel.Illumina(), true},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, reg := range regimes {
		reads := poolReads(t, enc, rng.New(11), reg.rates, reg.decayed)
		ref := newOracle(t, pipe, reads)
		kept, wantClusters := ref.kept, ref.clusters
		wantAll, wantErr := ref.decode(-1)
		wantBlk, wantBlkErr := ref.block(17)
		for _, workers := range workerCounts {
			eng, err := New(pipe, 0, workers)
			if err != nil {
				t.Fatal(err)
			}
			feed(eng, reads, 97)
			if eng.Kept() != len(kept) {
				t.Fatalf("%s/w%d: kept %d reads, oracle kept %d", reg.name, workers, eng.Kept(), len(kept))
			}
			gotKept, gotClusters := eng.materialize()
			for i := range kept {
				if !gotKept[i].Equal(kept[i]) {
					t.Fatalf("%s/w%d: kept read %d differs after arena round-trip", reg.name, workers, i)
				}
			}
			if !reflect.DeepEqual(gotClusters, wantClusters) {
				t.Fatalf("%s/w%d: %d streaming clusters diverge from %d oracle clusters",
					reg.name, workers, len(gotClusters), len(wantClusters))
			}
			gotAll, gotErr := eng.Finalize()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s/w%d: finalize err %v, oracle err %v", reg.name, workers, gotErr, wantErr)
			}
			if !reflect.DeepEqual(gotAll, wantAll) {
				t.Fatalf("%s/w%d: streaming decode diverges from the oracle", reg.name, workers)
			}
			// Single-block finalize against the oracle's single-block decode.
			gotBlk, gotBlkErr := eng.FinalizeBlock(17)
			if (gotBlkErr == nil) != (wantBlkErr == nil) {
				t.Fatalf("%s/w%d: block finalize err %v, oracle %v", reg.name, workers, gotBlkErr, wantBlkErr)
			}
			if wantBlkErr == nil && !reflect.DeepEqual(gotBlk.Versions, wantBlk.Versions) {
				t.Fatalf("%s/w%d: block 17 content diverges", reg.name, workers)
			}
		}
		for _, row := range decodeRows {
			got, gotErr := Decode(newPipelineWorkers(t, enc, row.workers), reads, row.target)
			want, wantErr := wantAll, wantErr
			if row.target >= 0 {
				want, wantErr = map[int]*decode.BlockResult{row.target: wantBlk}, wantBlkErr
			}
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Decode(workers=%d, target=%d) diverges from the oracle (err %v, oracle %v)",
					reg.name, row.workers, row.target, gotErr, wantErr)
			}
		}
	}
}

// TestEngineCoverageFloor pins Done semantics: a target block becomes
// done when all but the erasure slack of its expected (version, intra)
// slots hold at least the floor's reads, and Reopen clears the verdict.
func TestEngineCoverageFloor(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	r := rng.New(5)
	strands := enc.encodeUnit(t, 17, 0, unitData(r, enc.unit.DataBytes()))
	eng, err := New(pipe, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Expect(17, []int{0})
	if eng.IsTarget(3) || !eng.IsTarget(17) {
		t.Fatal("target registration broken")
	}
	if eng.slack < 1 || eng.slack >= len(strands) {
		t.Fatalf("slack %d outside the unit's geometry", eng.slack)
	}
	// Cover all but the last slack+1 strands to the floor, and those to
	// one read below it: one slot too many short of the floor, so the
	// erasure margin cannot absorb them all. Noiseless copies: every
	// read parses, so the counts are exact and the Done flip happens at
	// precisely the slack boundary.
	thin := len(strands) - eng.slack - 1
	var batch []dna.Seq
	for _, s := range strands[:thin] {
		for c := 0; c < DefaultFloor; c++ {
			batch = append(batch, channel.Corrupt(r, s, channel.Noiseless()))
		}
	}
	for _, s := range strands[thin:] {
		for c := 0; c < DefaultFloor-1; c++ {
			batch = append(batch, channel.Corrupt(r, s, channel.Noiseless()))
		}
	}
	eng.Add(batch)
	if eng.Done(17) {
		t.Fatal("done with one slot more than the slack below the floor")
	}
	if eng.AllDone() {
		t.Fatal("AllDone with an unfinished target")
	}
	eng.Add([]dna.Seq{channel.Corrupt(r, strands[thin], channel.Noiseless())})
	if !eng.Done(17) || !eng.AllDone() {
		t.Fatal("slack boundary met but not done")
	}
	eng.Reopen(17)
	if eng.Done(17) {
		t.Fatal("reopened block reported done")
	}
	res, err := eng.FinalizeBlock(17)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Versions[0]) != enc.unit.DataBytes() {
		t.Fatalf("decoded %d bytes", len(res.Versions[0]))
	}
}

// TestEngineShardedMatchesBatch pins the sharding invariant: each
// shard's clusters equal cluster.Group run over exactly the reads
// routed to that shard (kept order preserved), and a targeted Finalize
// decodes content identical to the oracle's per-block decode, at every
// shard count — as does the one-shard full-budget Decode.
func TestEngineShardedMatchesBatch(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	reads := poolReads(t, enc, rng.New(11), channel.Illumina(), true)
	blocks := []int{2, 17, 40}
	ref := newOracle(t, pipe, reads)
	wantBlk := make(map[int]*decode.BlockResult)
	for _, b := range blocks {
		res, err := ref.block(b)
		if err != nil {
			t.Fatal(err)
		}
		wantBlk[b] = res
	}
	for _, row := range decodeRows {
		got, err := Decode(newPipelineWorkers(t, enc, row.workers), reads, row.target)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			if row.target >= 0 && b != row.target {
				continue
			}
			if got[b] == nil || !reflect.DeepEqual(got[b].Versions, wantBlk[b].Versions) {
				t.Fatalf("Decode(workers=%d, target=%d): block %d content diverges from the oracle",
					row.workers, row.target, b)
			}
		}
	}
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0) + 1} {
		eng, err := NewSharded(pipe, 0, 4, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			eng.Expect(b, []int{0})
		}
		feed(eng, reads, 97)
		// Re-derive each shard's read subsequence the way stage A routes
		// it and check the shard's clusters against cluster.Group run
		// over just that subsequence.
		laneReads := make([][]dna.Seq, len(eng.lanes))
		local := make([]int, eng.Kept())
		ri := 0
		for _, rd := range reads {
			if !pipe.Keep(rd) {
				continue
			}
			li := 0
			if shards > 1 {
				if b, _, _, ok := pipe.ProvisionalAddress(rd); ok {
					li = cluster.ShardOf(b, shards)
				} else {
					li = shards
				}
			}
			if int(eng.riLane[ri]) != li {
				t.Fatalf("shards=%d: read %d routed to lane %d, want %d", shards, ri, eng.riLane[ri], li)
			}
			local[ri] = len(laneReads[li])
			laneReads[li] = append(laneReads[li], rd)
			ri++
		}
		for li, l := range eng.lanes {
			want, err := cluster.Group(laneReads[li], pipe.Config().Cluster)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]int
			for _, ms := range l.members {
				c := make([]int, len(ms))
				for k, gi := range ms {
					c[k] = local[gi]
				}
				got = append(got, c)
			}
			sort.SliceStable(got, func(i, j int) bool { return len(got[i]) > len(got[j]) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: lane %d clusters diverge from cluster.Group", shards, li)
			}
		}
		if res := eng.Stats().Residue; shards > 1 && res == 0 {
			t.Fatalf("shards=%d: decayed pool produced no residue reads", shards)
		}
		all, err := eng.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			got, ok := all[b]
			if !ok {
				t.Fatalf("shards=%d: block %d missing from drain", shards, b)
			}
			if !reflect.DeepEqual(got.Versions, wantBlk[b].Versions) {
				t.Fatalf("shards=%d: block %d content diverges from the oracle", shards, b)
			}
		}
	}
}

// TestEngineOverlapReopen exercises the background finalize pool: jobs
// are submitted as shards meet their floors, a mid-flight Reopen
// invalidates the stale job (it is discarded, never consumed), and the
// drain still matches the oracle decode.
func TestEngineOverlapReopen(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	reads := poolReads(t, enc, rng.New(11), channel.Illumina(), false)
	blocks := []int{2, 17, 40}
	eng, err := NewSharded(pipe, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.Overlap(parallel.NewPool(4))
	defer eng.Close()
	for _, b := range blocks {
		eng.Expect(b, []int{0})
	}
	feed(eng, reads, 97)
	if !eng.AllDone() {
		t.Fatal("eight noisy copies per strand did not satisfy the floor")
	}
	if jobs := eng.Stats().FinalizeJobs; jobs < 3 {
		t.Fatalf("%d finalize jobs for 3 targets on distinct shards", jobs)
	}
	// Escalate block 17 while its shard's job is in flight (or done):
	// the job must not serve block 17 anymore, and once the doubled
	// floor fills, the shard resubmits, discarding the stale job.
	eng.Reopen(17)
	if eng.Done(17) {
		t.Fatal("reopened block reported done")
	}
	feed(eng, reads, 97) // same pool again: doubles every slot's coverage
	if !eng.Done(17) {
		t.Fatal("doubled floor not met by a second pass of the pool")
	}
	st := eng.Stats()
	if st.FinalizeDiscarded < 1 {
		t.Fatalf("stale job not discarded (discarded=%d)", st.FinalizeDiscarded)
	}
	all, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	wantBlk, err := newOracle(t, pipe, reads).block(17)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all[17].Versions, wantBlk.Versions) {
		t.Fatal("post-escalation content diverges from the oracle")
	}
	if eng.Stats().FinalizeSeconds <= 0 {
		t.Fatal("finalize compute unaccounted")
	}
}

// TestEngineAssignAllocs pins the per-read assignment hot path — probe
// scan plus cluster join — as allocation-free once the engine's slices
// have grown.
func TestEngineAssignAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin is meaningless")
	}
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	r := rng.New(6)
	strands := enc.encodeUnit(t, 17, 0, unitData(r, enc.unit.DataBytes()))
	eng, err := New(pipe, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var warm []dna.Seq
	for _, s := range strands {
		for c := 0; c < 8; c++ {
			warm = append(warm, channel.Corrupt(r, s, channel.Illumina()))
		}
	}
	eng.Add(warm)
	join := strands[0].Clone() // clean copy: joins strand 0's cluster
	h := eng.signer.NumHashes
	sigs := make([]uint64, h)
	eng.signer.Into(join, sigs)
	l := eng.lanes[0]
	snapshot := make([]int, len(l.members))
	for i := range l.members {
		snapshot[i] = len(l.members[i])
	}
	restore := func() {
		for i := range snapshot {
			l.members[i] = l.members[i][:snapshot[i]]
		}
	}
	ri := len(eng.spans)
	l.assign(join, ri, sigs) // grow append capacity once
	restore()
	avg := testing.AllocsPerRun(100, func() {
		l.assign(join, ri, sigs)
		restore()
	})
	if avg != 0 {
		t.Errorf("assign allocates %.1f per read, want 0", avg)
	}
	if eng.Clusters() < len(strands) {
		t.Fatalf("%d clusters for %d strands", eng.Clusters(), len(strands))
	}
}

// TestEngineAddAllocs pins the whole warm streaming path — stage A
// filter/pack/sign/parse, shard routing, assignment, coverage, and the
// finalize-submission gate with a pool attached — as allocation-free
// per read once capacities have grown.
func TestEngineAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin is meaningless")
	}
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	r := rng.New(6)
	strands := enc.encodeUnit(t, 17, 0, unitData(r, enc.unit.DataBytes()))
	eng, err := NewSharded(pipe, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.Overlap(parallel.NewPool(1))
	defer eng.Close()
	// The target's floor is never met (only strand 0's slot fills), so
	// the submission gate runs on every Add without ever firing.
	eng.Expect(17, []int{0})
	var warm []dna.Seq
	for _, s := range strands {
		for c := 0; c < 8; c++ {
			warm = append(warm, channel.Corrupt(r, s, channel.Illumina()))
		}
	}
	eng.Add(warm)
	join := strands[0].Clone()
	batch := []dna.Seq{join}
	l := eng.lanes[cluster.ShardOf(17, 4)]
	snapshot := make([]int, len(l.members))
	for i := range l.members {
		snapshot[i] = len(l.members[i])
	}
	spans, bases, arenaLen, riLen := len(eng.spans), eng.bases, len(eng.arena), len(eng.riLane)
	restore := func() {
		eng.spans = eng.spans[:spans]
		eng.bases = bases
		eng.arena = eng.arena[:arenaLen]
		eng.riLane = eng.riLane[:riLen]
		for i := range snapshot {
			l.members[i] = l.members[i][:snapshot[i]]
		}
	}
	eng.Add(batch) // grow append capacity once
	restore()
	avg := testing.AllocsPerRun(100, func() {
		eng.Add(batch)
		restore()
	})
	if avg != 0 {
		t.Errorf("warm Add allocates %.1f per read, want 0", avg)
	}
}

// BenchmarkDecode225Reads times the full-budget protocol on the paper's
// Section 8 sample size: 225 Illumina reads of one 15-strand unit,
// decoded for that block.
func BenchmarkDecode225Reads(b *testing.B) {
	e := newEncoder(b)
	r := rng.New(11)
	strands := e.encodeUnit(b, 531, 0, unitData(r, e.unit.DataBytes()))
	var reads []dna.Seq
	for i := 0; i < 225; i++ {
		reads = append(reads, channel.Corrupt(r, strands[r.Intn(len(strands))], channel.Illumina()))
	}
	p := newPipeline(b, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(p, reads, 531); err != nil {
			b.Fatal(err)
		}
	}
}
