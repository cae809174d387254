package streamdecode

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/rng"
)

var (
	fwdP = dna.MustFromString("ACGTACGTACGTACGTACGA")
	revP = dna.MustFromString("TGCATGCATGCATGCATGCA")
)

// encoder is a minimal write path mirroring package blockstore: seal,
// unit-encode, assemble strands.
type encoder struct {
	g    layout.Geometry
	unit *layout.UnitCodec
	tree *indextree.Tree
}

func newEncoder(t testing.TB) *encoder {
	t.Helper()
	g := layout.PaperGeometry()
	unit, err := layout.NewUnitCodec(g, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := indextree.New(5, 777)
	if err != nil {
		t.Fatal(err)
	}
	return &encoder{g: g, unit: unit, tree: tree}
}

// encodeUnit seals data in place, so its pad holds the unit's CRC and a
// decoded unit equals data, and produces the unit's strand sequences.
func (e *encoder) encodeUnit(t testing.TB, block, version int, data []byte) []dna.Seq {
	t.Helper()
	copy(data, e.unit.Seal(data[:e.unit.BlockSize()]))
	payloads, err := e.unit.Encode(block, version, data)
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

// decodedData maps each decoded unit's version to its bytes: a
// result's content, without the health accounting.
func decodedData(res *decode.BlockResult) map[int][]byte {
	out := make(map[int][]byte)
	if res == nil {
		return out
	}
	for v, u := range res.Units {
		if u.Data != nil {
			out[v] = u.Data
		}
	}
	return out
}

func newPipeline(t testing.TB, e *encoder) *decode.Pipeline {
	return newPipelineWorkers(t, e, 0)
}

func newPipelineWorkers(t testing.TB, e *encoder, workers int) *decode.Pipeline {
	t.Helper()
	cfg := decode.DefaultConfig()
	cfg.Workers = workers
	p, err := decode.New(cfg, e.tree, fwdP, revP, e.unit)
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
		e.Add(reads[start:end], nil)
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
			eng, err := New(pipe, workers, 1)
			if err != nil {
				t.Fatal(err)
			}
			feed(eng, reads, 97)
			if len(eng.spans) != len(kept) {
				t.Fatalf("%s/w%d: kept %d reads, oracle kept %d", reg.name, workers, len(eng.spans), len(kept))
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
			if wantBlkErr == nil && !reflect.DeepEqual(decodedData(gotBlk), decodedData(wantBlk)) {
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
	eng, err := New(pipe, 1, 1)
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
	eng.Add(batch, nil)
	if eng.Done(17) {
		t.Fatal("done with one slot more than the slack below the floor")
	}
	if eng.AllDone() {
		t.Fatal("AllDone with an unfinished target")
	}
	eng.Add([]dna.Seq{channel.Corrupt(r, strands[thin], channel.Noiseless())}, nil)
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
	if len(res.Units[0].Data) != enc.unit.DataBytes() {
		t.Fatalf("decoded %d bytes", len(res.Units[0].Data))
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
			if got[b] == nil || !reflect.DeepEqual(decodedData(got[b]), decodedData(wantBlk[b])) {
				t.Fatalf("Decode(workers=%d, target=%d): block %d content diverges from the oracle",
					row.workers, row.target, b)
			}
		}
	}
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0) + 1} {
		eng, err := New(pipe, 4, shards)
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
		local := make([]int, len(eng.spans))
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
			if !reflect.DeepEqual(decodedData(got), decodedData(wantBlk[b])) {
				t.Fatalf("shards=%d: block %d content diverges from the oracle", shards, b)
			}
		}
	}
}

// TestEngineReopen escalates a target after its floor was met: Reopen
// clears its verdict until a doubled floor fills, and the drain after
// the escalation still matches the oracle decode.
func TestEngineReopen(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	reads := poolReads(t, enc, rng.New(11), channel.Illumina(), false)
	blocks := []int{2, 17, 40}
	eng, err := New(pipe, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		eng.Expect(b, []int{0})
	}
	feed(eng, reads, 97)
	if !eng.AllDone() {
		t.Fatal("eight noisy copies per strand did not satisfy the floor")
	}
	eng.Reopen(17)
	if eng.Done(17) {
		t.Fatal("reopened block reported done")
	}
	feed(eng, reads, 97) // same pool again: doubles every slot's coverage
	if !eng.Done(17) {
		t.Fatal("doubled floor not met by a second pass of the pool")
	}
	all, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	wantBlk, err := newOracle(t, pipe, reads).block(17)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decodedData(all[17]), decodedData(wantBlk)) {
		t.Fatal("post-escalation content diverges from the oracle")
	}
	if eng.Stats().FinalizeSeconds <= 0 {
		t.Fatal("finalize compute unaccounted")
	}
}

// TestEngineFinalizeSharesLaneDecodes pins on-demand finalization:
// Finalize over targets that share a shard runs one lane decode per
// shard, and each target's FinalizeBlock equals — and agrees with
// Finalize on — the oracle decode of every block in its lane set (its
// shard plus the residue shard) in one DecodeClusters(…, -1) pass.
func TestEngineFinalizeSharesLaneDecodes(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	reads := poolReads(t, enc, rng.New(11), channel.Illumina(), true)
	blocks := []int{2, 17, 40} // blocks 2 and 40 share shard 0 of 2
	const shards = 2
	eng, err := New(pipe, 1, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		eng.Expect(b, []int{0})
	}
	feed(eng, reads, 97)
	all, err := eng.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.FinalizeJobs != shards {
		t.Fatalf("Finalize ran %d lane decodes for 3 targets on %d shards", st.FinalizeJobs, shards)
	}
	if st.FinalizeWaitSeconds != st.FinalizeSeconds {
		t.Fatalf("finalize wait %.6fs != compute %.6fs", st.FinalizeWaitSeconds, st.FinalizeSeconds)
	}
	for _, b := range blocks {
		kept, clusters := eng.materializeLanes(eng.laneSet(cluster.ShardOf(b, shards)))
		results, err := pipe.DecodeClusters(kept, clusters, -1)
		want, wantErr := decode.FinishBlock(results, err, b)
		if wantErr != nil {
			t.Fatalf("block %d: oracle lane decode failed: %v", b, wantErr)
		}
		got, err := eng.FinalizeBlock(b)
		if err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d: FinalizeBlock diverges from the oracle lane decode", b)
		}
		if !reflect.DeepEqual(all[b], want) {
			t.Fatalf("block %d: Finalize diverges from the oracle lane decode", b)
		}
	}
	if jobs := eng.Stats().FinalizeJobs; jobs != shards+len(blocks) {
		t.Fatalf("%d lane decodes after %d FinalizeBlock calls, want %d", jobs, len(blocks), shards+len(blocks))
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
	eng, err := New(pipe, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var warm []dna.Seq
	for _, s := range strands {
		for c := 0; c < 8; c++ {
			warm = append(warm, channel.Corrupt(r, s, channel.Illumina()))
		}
	}
	eng.Add(warm, nil)
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
	if len(l.members) < len(strands) {
		t.Fatalf("%d clusters for %d strands", len(l.members), len(strands))
	}
}

// TestEngineAddAllocs pins the whole warm streaming path — stage A
// filter/pack/sign/parse, shard routing, assignment, coverage, and the
// floor accounting of a registered target — as allocation-free per
// read once capacities have grown.
func TestEngineAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin is meaningless")
	}
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	r := rng.New(6)
	strands := enc.encodeUnit(t, 17, 0, unitData(r, enc.unit.DataBytes()))
	eng, err := New(pipe, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A registered target puts the floor accounting on the pinned path.
	eng.Expect(17, []int{0})
	var warm []dna.Seq
	for _, s := range strands {
		for c := 0; c < 8; c++ {
			warm = append(warm, channel.Corrupt(r, s, channel.Illumina()))
		}
	}
	eng.Add(warm, nil)
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
	eng.Add(batch, nil) // grow append capacity once
	restore()
	avg := testing.AllocsPerRun(100, func() {
		eng.Add(batch, nil)
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

// TestEngineAdmitMatchesOneReadAdds pins Add's in-chunk cut: one Add
// of a whole read set under an admit that re-asks the stop test and a
// gate (refuse reads of a finished target) consumes exactly what one
// Add per read, checking the same tests before each read, consumes —
// the same reads, Done turning true on the same read, identical
// clusters and identical finalized content.
func TestEngineAdmitMatchesOneReadAdds(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	reads := poolReads(t, enc, rng.New(11), channel.Illumina(), true)
	addr := make([]slotAddr, len(reads))
	for i, rd := range reads {
		b, v, in, ok := pipe.ProvisionalAddress(rd)
		addr[i] = slotAddr{b, v, in, ok}
	}
	cases := []struct {
		name    string
		targets []int
		shards  int
	}{
		{"point", []int{17}, 1},
		{"point-sharded", []int{17}, 4},
		{"cover-sharded", []int{2, 17, 40}, 4},
	}
	for _, tc := range cases {
		mk := func() *Engine {
			eng, err := New(pipe, 4, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range tc.targets {
				eng.Expect(b, []int{0})
			}
			return eng
		}
		// refused reports whether a read's block is a finished target:
		// the pore gate's live verdict.
		refused := func(eng *Engine, i int) bool {
			return addr[i].ok && eng.Done(addr[i].block)
		}
		one, chunked := mk(), mk()
		var oneReads []int
		for i := range reads {
			if one.AllDone() {
				break
			}
			if refused(one, i) {
				continue
			}
			one.Add(reads[i:i+1], nil)
			oneReads = append(oneReads, i)
		}
		if !one.AllDone() {
			t.Fatalf("%s: the read set never met the floor", tc.name)
		}
		var chunkedReads []int
		gateCuts := 0
		for next := 0; next < len(reads) && !chunked.AllDone(); {
			if refused(chunked, next) {
				next++ // the gate ejects it before it reaches a chunk
				continue
			}
			base := next
			cut := chunked.Add(reads[base:], func(i int) bool {
				return !chunked.AllDone() && !refused(chunked, base+i)
			})
			if cut < 1 {
				t.Fatalf("%s: Add consumed nothing at read %d", tc.name, base)
			}
			for i := base; i < base+cut; i++ {
				chunkedReads = append(chunkedReads, i)
			}
			next = base + cut
			if next < len(reads) && !chunked.AllDone() {
				gateCuts++
			}
		}
		if len(tc.targets) > 1 && gateCuts == 0 {
			t.Fatalf("%s: no chunk was cut by the gate", tc.name)
		}
		if !reflect.DeepEqual(chunkedReads, oneReads) {
			t.Fatalf("%s: chunked Add consumed %d reads, one-read Adds %d (last %d vs %d)",
				tc.name, len(chunkedReads), len(oneReads), chunkedReads[len(chunkedReads)-1], oneReads[len(oneReads)-1])
		}
		if len(tc.targets) == 1 && len(chunkedReads) == len(reads) {
			t.Fatalf("%s: the floor filled on the last read; the cut is untested", tc.name)
		}
		oneKept, oneClusters := one.materialize()
		chKept, chClusters := chunked.materialize()
		if !reflect.DeepEqual(oneKept, chKept) || !reflect.DeepEqual(oneClusters, chClusters) {
			t.Fatalf("%s: chunked clusters diverge from one-read Adds", tc.name)
		}
		if len(one.spans) != len(chunked.spans) || one.bases != chunked.bases || len(one.arena) != len(chunked.arena) {
			t.Fatalf("%s: kept state diverges: %d/%d reads, %d/%d bases, %d/%d arena bytes", tc.name,
				len(one.spans), len(chunked.spans), one.bases, chunked.bases, len(one.arena), len(chunked.arena))
		}
		for _, b := range tc.targets {
			want, wantErr := one.FinalizeBlock(b)
			got, gotErr := chunked.FinalizeBlock(b)
			if (gotErr == nil) != (wantErr == nil) || (wantErr == nil && !reflect.DeepEqual(decodedData(got), decodedData(want))) {
				t.Fatalf("%s: block %d finalize diverges (err %v, one-read %v)", tc.name, b, gotErr, wantErr)
			}
		}
	}
}

// checkFloors recounts every target's floor state from the coverage
// counts by brute force and fails unless the incremental counts, Done
// and AllDone agree with it.
func checkFloors(t *testing.T, e *Engine, when string) {
	t.Helper()
	pending := 0
	for _, b := range e.targets {
		f := e.floors[b]
		floor := e.effFloor(b)
		over := 0
		for k, v := range f.versions {
			short := 0
			for intra := 0; intra < layout.UnitMolecules; intra++ {
				if e.cov[slotKey{b, v, intra}] < floor {
					short++
				}
			}
			if f.short[k] != short {
				t.Fatalf("%s: block %d version %d: %d slots short incrementally, %d by recount", when, b, v, f.short[k], short)
			}
			if short > e.slack {
				over++
			}
		}
		if f.over != over {
			t.Fatalf("%s: block %d: %d versions over the slack incrementally, %d by recount", when, b, f.over, over)
		}
		done := len(f.versions) > 0 && over == 0
		if e.Done(b) != done {
			t.Fatalf("%s: block %d: Done %v, recount %v", when, b, e.Done(b), done)
		}
		if !done {
			pending++
		}
	}
	if e.pending != pending || e.AllDone() != (pending == 0) {
		t.Fatalf("%s: %d targets pending incrementally (AllDone %v), %d by recount", when, e.pending, e.AllDone(), pending)
	}
}

// TestEngineFloorCountsMatchRecount checks the incremental floor
// accounting against a brute-force recount of the coverage counts
// after every read, at zero and the default slack, through two Reopen
// rounds of one target — including a multi-version target and one
// that expects a version no read carries, so it is never done.
func TestEngineFloorCountsMatchRecount(t *testing.T) {
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	r := rng.New(13)
	var strands []dna.Seq
	for _, u := range []struct{ block, version int }{{2, 0}, {17, 0}, {17, 1}, {40, 0}} {
		strands = append(strands, enc.encodeUnit(t, u.block, u.version, unitData(r, enc.unit.DataBytes()))...)
	}
	var reads []dna.Seq
	for c := 0; c < 8*DefaultFloor; c++ {
		for _, s := range strands {
			reads = append(reads, channel.Corrupt(r, s, channel.Illumina()))
		}
	}
	r.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	for _, slack := range []int{0, -1} {
		eng, err := New(pipe, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetSlack(slack)
		eng.Expect(2, []int{0})
		eng.Expect(17, []int{0, 1})
		eng.Expect(40, []int{0, 3})
		checkFloors(t, eng, "registration")
		reopens := 0
		for i, rd := range reads {
			eng.Add([]dna.Seq{rd}, nil)
			checkFloors(t, eng, "after a read")
			if reopens < 2 && eng.Done(17) {
				eng.Reopen(17)
				reopens++
				checkFloors(t, eng, "after Reopen")
			}
			if i == len(reads)/2 {
				// Re-registering a target recounts it from scratch.
				eng.Expect(2, []int{0})
				checkFloors(t, eng, "after re-Expect")
			}
		}
		if reopens != 2 || !eng.Done(17) || !eng.Done(2) || eng.Done(40) {
			t.Fatalf("slack %d: %d reopens, done 2/17/40 = %v/%v/%v; want 2 reopens and 2, 17 done",
				eng.slack, reopens, eng.Done(2), eng.Done(17), eng.Done(40))
		}
	}
}
