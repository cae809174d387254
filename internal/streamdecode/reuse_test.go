package streamdecode

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// drainEngines empties the released-engine list, so the next New
// builds a fresh engine.
func drainEngines() {
	for engines.Get() != nil {
	}
}

// reaction is what one engine made of a read set: its kept reads and
// clusters (copied out of the engine's storage), its deterministic
// stats, its targets' floors, short-slot counts, verdicts and
// coverage, and its decodes.
type reaction struct {
	kept     []dna.Seq
	clusters [][]int
	keptStat int
	residue  int
	jobs     int
	done     []bool
	floors   []int
	short    [][]int
	coverage float64
	all      map[int]*decode.BlockResult
	allErr   bool
	block    *decode.BlockResult
	blockErr bool
}

// react runs one reaction on e: the targets registered (none for the
// full-budget protocol), the reads fed in uneven chunks, target 17
// reopened once and fed again, then a Finalize and a FinalizeBlock of
// block 17.
func react(e *Engine, reads []dna.Seq, targets []int) reaction {
	for _, b := range targets {
		e.Expect(b, []int{0})
	}
	feed(e, reads, 97)
	if len(targets) > 0 {
		e.Reopen(17)
		feed(e, reads[:len(reads)/2], 61)
	}
	var out reaction
	kept, clusters := e.materialize()
	for _, rd := range kept {
		out.kept = append(out.kept, rd.Clone())
	}
	for _, c := range clusters {
		out.clusters = append(out.clusters, append([]int(nil), c...))
	}
	for _, b := range targets {
		out.done = append(out.done, e.Done(b))
		out.floors = append(out.floors, e.effFloor(b))
		out.short = append(out.short, append([]int(nil), e.floors[b].short...))
	}
	out.coverage = e.CoverageEstimate()
	var err error
	out.all, err = e.Finalize()
	out.allErr = err != nil
	out.block, err = e.FinalizeBlock(17)
	out.blockErr = err != nil
	st := e.Stats()
	out.keptStat, out.residue, out.jobs = st.Kept, st.Residue, st.FinalizeJobs
	return out
}

// TestEngineReuseMatchesFresh is the reuse differential: an engine
// released after a reaction on another pipeline — another signer
// (NumHashes), another cluster radius — and another shard count, and
// taken back by New for a new read set, clusters and decodes exactly
// what a fresh engine does on the same reads.
func TestEngineReuseMatchesFresh(t *testing.T) {
	enc := newEncoder(t)
	defaultPipe := newPipeline(t, enc)
	harshCfg := decode.DefaultConfig()
	harshCfg.Cluster = cluster.Config{Q: 8, NumHashes: 8, MaxDist: 45}
	harshPipe, err := decode.New(harshCfg, enc.tree, fwdP, revP, enc.unit)
	if err != nil {
		t.Fatal(err)
	}
	illumina := poolReads(t, enc, rng.New(11), channel.Illumina(), true)
	nanopore := poolReads(t, enc, rng.New(12), channel.Nanopore(), true)
	type setup struct {
		pipe    *decode.Pipeline
		shards  int
		reads   []dna.Seq
		targets []int
	}
	rows := []struct {
		name        string
		prior, next setup
	}{
		{"harsh-1-then-default-4",
			setup{harshPipe, 1, nanopore, []int{2, 17}},
			setup{defaultPipe, 4, illumina, []int{2, 17, 40}}},
		// The harsh radius decodes no unit of the nanopore reads
		// (their units fail the seal), so it reads the Illumina set.
		{"default-8-then-harsh-1",
			setup{defaultPipe, 0, nanopore, []int{2, 17, 40}},
			setup{harshPipe, 1, illumina, nil}},
		{"default-2-then-harsh-8",
			setup{defaultPipe, 2, nanopore, nil},
			setup{harshPipe, 0, illumina, []int{17, 40}}},
	}
	for _, row := range rows {
		drainEngines()
		prior, err := New(row.prior.pipe, 4, row.prior.shards)
		if err != nil {
			t.Fatal(err)
		}
		react(prior, row.prior.reads, row.prior.targets)
		prior.Release()
		reused, err := New(row.next.pipe, 4, row.next.shards)
		if err != nil {
			t.Fatal(err)
		}
		if reused != prior {
			t.Fatalf("%s: New did not take the released engine back", row.name)
		}
		got := react(reused, row.next.reads, row.next.targets)
		drainEngines()
		fresh, err := New(row.next.pipe, 4, row.next.shards)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == prior {
			t.Fatalf("%s: New reused an engine after the list was drained", row.name)
		}
		want := react(fresh, row.next.reads, row.next.targets)
		if len(want.clusters) == 0 || want.allErr {
			t.Fatalf("%s: the fresh engine decoded nothing; the test compares nothing", row.name)
		}
		if !reflect.DeepEqual(got.kept, want.kept) || !reflect.DeepEqual(got.clusters, want.clusters) {
			t.Fatalf("%s: reused engine kept %d reads in %d clusters, fresh %d in %d, or their contents differ",
				row.name, len(got.kept), len(got.clusters), len(want.kept), len(want.clusters))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused engine's stats, floors or decodes diverge from a fresh engine's:\nreused %+v\nfresh  %+v",
				row.name, got, want)
		}
		reused.Release()
		fresh.Release()
	}
}

// TestEngineReuseAllocs pins what a reused engine saves: with the
// collector off, a second New→Expect→Add→Finalize→Release round over
// the same reads allocates at most reuseRoundBytes. What is left is
// the decode back half's own work: its candidate maps, the RS units
// and the results. A fresh engine's round allocates about 285 kB on
// these reads and a reused one's about 54 kB.
func TestEngineReuseAllocs(t *testing.T) {
	const reuseRoundBytes = 80 << 10
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin is meaningless")
	}
	enc := newEncoder(t)
	pipe := newPipeline(t, enc)
	reads := poolReads(t, enc, rng.New(11), channel.Illumina(), true)
	round := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := New(pipe, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{2, 17, 40} {
			e.Expect(b, []int{0})
		}
		e.Add(reads, nil)
		if _, err := e.Finalize(); err != nil {
			t.Fatal(err)
		}
		e.Release()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	drainEngines()
	first := round()
	second := round()
	t.Logf("first round %d bytes, second %d", first, second)
	if second > reuseRoundBytes {
		t.Errorf("a round on a reused engine allocated %d bytes, over the %d-byte bound (the first round allocated %d)",
			second, reuseRoundBytes, first)
	}
}

// TestEngineReleaseTwicePanics pins the single-owner guard: a second
// Release of an engine nobody took back panics instead of listing the
// engine twice, which would let two reactions share it.
func TestEngineReleaseTwicePanics(t *testing.T) {
	e, err := New(newPipeline(t, newEncoder(t)), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
		drainEngines()
	}()
	e.Release()
}
