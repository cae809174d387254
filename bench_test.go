package dnastore

// One benchmark per paper artifact. Each bench regenerates the
// corresponding figure or headline number through the experiment
// harness and reports the reproduced quantity as a custom metric, so
// `go test -bench .` doubles as the reproduction run. cmd/dnabench
// prints the same results as human-readable tables.

import (
	"sync"
	"testing"

	"dnastore/internal/blockstore"
	"dnastore/internal/experiment"
	"dnastore/internal/update"
)

var (
	benchOnce sync.Once
	benchWet  *experiment.Wetlab
	benchA    *experiment.Fig9aResult
	benchB    *experiment.Fig9bResult
	benchErr  error
)

// benchSetup builds the Section 6 wetlab once per binary; individual
// benches re-run only their own experiment.
func benchSetup(b *testing.B) (*experiment.Wetlab, *experiment.Fig9aResult, *experiment.Fig9bResult) {
	b.Helper()
	benchOnce.Do(func() {
		benchWet, benchErr = experiment.Build(experiment.Options{})
		if benchErr != nil {
			return
		}
		benchA, benchErr = experiment.Fig9a(benchWet, 50000)
		if benchErr != nil {
			return
		}
		benchB, benchErr = experiment.Fig9Elongated(benchWet, benchA.Amplified, 531, 50000)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchWet, benchA, benchB
}

// BenchmarkFig3Capacity regenerates Figure 3 (capacity and density vs
// index length).
func BenchmarkFig3Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := r.Primer20[len(r.Primer20)-1]
			b.ReportMetric(last.CapacityLog2Bytes, "log2maxBytes")
		}
	}
}

// BenchmarkFig9aPartitionAccess regenerates Figure 9a (whole-partition
// random access).
func BenchmarkFig9aPartitionAccess(b *testing.B) {
	w, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig9a(w, 50000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.UniformityRatio, "maxmin")
			b.ReportMetric(r.UpdatedBoost, "updBoost")
		}
	}
}

// BenchmarkFig9bElongated531 regenerates Figure 9b (elongated-primer
// access to block 531).
func BenchmarkFig9bElongated531(b *testing.B) {
	w, a, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig9Elongated(w, a.Amplified, 531, 50000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.TargetOverall(), "target%")
		}
	}
}

// BenchmarkFig9cElongated144 regenerates Figure 9c (block 144).
func BenchmarkFig9cElongated144(b *testing.B) {
	w, a, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig9Elongated(w, a.Amplified, 144, 50000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.TargetOverall(), "target%")
		}
	}
}

// BenchmarkMultiplexPCR regenerates the Section 6.5 multiplexed
// three-block retrieval.
func BenchmarkMultiplexPCR(b *testing.B) {
	w, a, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig9Multiplex(w, a.Amplified, experiment.TwistUpdateBlocks, 50000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.TargetOverall, "target%")
		}
	}
}

// BenchmarkCostReduction regenerates the Section 7.3 sequencing-cost
// arithmetic (the headline ~141x).
func BenchmarkCostReduction(b *testing.B) {
	_, a, bb := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := experiment.Cost(a, bb)
		if i == 0 {
			b.ReportMetric(c.Reduction, "xReduction")
		}
	}
}

// BenchmarkLatencyModels regenerates Section 7.4 (NGS runs and Nanopore
// hours).
func BenchmarkLatencyModels(b *testing.B) {
	_, a, bb := benchSetup(b)
	c := experiment.Cost(a, bb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := experiment.Latency(c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(l.NanoporeReduction, "xNanopore")
		}
	}
}

// BenchmarkUpdateCosts regenerates Section 7.5 (synthesis ~580x and
// sequencing ~146x reductions), including a real run of the naïve
// baseline on a Dense block-store partition per object generation.
func BenchmarkUpdateCosts(b *testing.B) {
	w, _, bb := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := experiment.UpdateCost(w, bb)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(u.SynthesisReduction, "xSynthesis")
			b.ReportMetric(u.ReadReduction, "xReads")
		}
	}
}

// BenchmarkDecode225Reads regenerates Section 8 (block + update decoded
// from a ~225-read sample).
func BenchmarkDecode225Reads(b *testing.B) {
	w, _, bb := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := experiment.Decode8(w, bb, 225)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(d.ReadsUsed), "reads")
		}
	}
}

// BenchmarkMisprimeAnalysis regenerates Section 8.1 (edit-distance
// structure of misprimed strands).
func BenchmarkMisprimeAnalysis(b *testing.B) {
	w, _, bb := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := experiment.Misprime(w, bb)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && m.TotalMisprimeMass > 0 {
			close := m.MassByDist[2] + m.MassByDist[3]
			b.ReportMetric(100*close/m.TotalMisprimeMass, "d23%")
		}
	}
}

// BenchmarkFig10Mixing regenerates Figure 10 (original vs update read
// counts after vendor-pool mixing).
func BenchmarkFig10Mixing(b *testing.B) {
	w, _, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig10(w, "amplify-then-measure", 200000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Imbalance, "xImbalance")
		}
	}
}

// BenchmarkScaleStudy regenerates Section 7.7.1-2 (misprime vs block
// count and block size; two-sided elongation).
func BenchmarkScaleStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Scale()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.TwoSidedBlocks), "blocks2side")
		}
	}
}

// BenchmarkTreeAblation regenerates the Section 4.3 index-design
// ablation (sparse vs random-spacer vs dense).
func BenchmarkTreeAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.TreeAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.MisprimeByVariant["dense"], "dense%")
			b.ReportMetric(100*r.MisprimeByVariant["sparse"], "sparse%")
		}
	}
}

// BenchmarkDensityOverhead regenerates the Section 4.3 density
// arithmetic (3% / 0.3% / 22%).
func BenchmarkDensityOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiment.Density()
		if i == 0 {
			b.ReportMetric(100*d.Loss150, "loss150%")
		}
	}
}

// BenchmarkPrimerCache regenerates the Section 7.7.4 primer-management
// study.
func BenchmarkPrimerCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Cache(1024, 20000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.HitRate["LFU/64"], "lfu64hit%")
		}
	}
}

// BenchmarkPrimerYield regenerates the Section 1 primer-library scaling
// claim (scaled-down search).
func BenchmarkPrimerYield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.PrimerYield(20000)
		if i == 0 {
			b.ReportMetric(r.Ratio, "yield30/20")
		}
	}
}

// BenchmarkRelatedWork regenerates the Section 9 elongation-vs-nested
// comparison.
func BenchmarkRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Related()
		if i == 0 {
			b.ReportMetric(r.NestedDensityLossRatio, "xDensityGap")
		}
	}
}

// BenchmarkAlignedAllocation regenerates the Section 3.1 future-work
// study: subtree-aligned file placement vs sequential packing.
func BenchmarkAlignedAllocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiment.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.NaivePrefixes)/float64(r.AlignedPrefixes), "xFewerPCRs")
		}
	}
}

// BenchmarkBlockWrite measures the write path (encode + synthesis).
// Blocks are write-once, so the bench swaps in a fresh partition (off
// the clock) whenever the address space fills.
func BenchmarkBlockWrite(b *testing.B) {
	sys, err := New(Options{Seed: 9, MaxPartitions: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.CreatePartition("bench")
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 256)
	blocks := p.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%blocks == 0 {
			b.StopTimer()
			sys, err = New(Options{Seed: 9 + uint64(i), MaxPartitions: 1})
			if err != nil {
				b.Fatal(err)
			}
			p, err = sys.CreatePartition("bench")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := p.WriteBlock(i%blocks, data); err != nil {
			b.Fatal(err)
		}
	}
}

// writeBenchStore builds the empty 64-block partition the write and
// update benchmarks share, so every variant measures one
// configuration.
func writeBenchStore(b *testing.B, workers int) *blockstore.Partition {
	b.Helper()
	primers, err := experiment.SearchPrimers(73, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := blockstore.DefaultConfig()
	cfg.Seed = 73
	cfg.TreeDepth = 3
	cfg.Geometry.IndexLen = 6
	cfg.Workers = workers
	s, err := blockstore.New(cfg, primers)
	if err != nil {
		b.Fatal(err)
	}
	p, err := s.CreatePartition("bench")
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchWriteBatch times one 64-block Batch.Apply per iteration. Blocks
// are write-once, so each iteration stages into a fresh store off the
// clock; only the commit — plan, parallel encode+synthesis, merge — is
// timed.
func benchWriteBatch(b *testing.B, workers int) {
	data := []byte("batch write benchmark block content.....")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := writeBenchStore(b, workers)
		batch := p.Batch()
		for blk := 0; blk < 64; blk++ {
			batch.Write(blk, data)
		}
		b.StartTimer()
		if err := batch.Apply(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteLoop is the per-block baseline the batch engine is
// measured against: the same 64 blocks written one WriteBlock (one-op
// batch) at a time.
func BenchmarkWriteLoop(b *testing.B) {
	data := []byte("batch write benchmark block content.....")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := writeBenchStore(b, 1)
		b.StartTimer()
		for blk := 0; blk < 64; blk++ {
			if err := p.WriteBlock(blk, data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWriteBatchSerial and BenchmarkWriteBatchParallel commit the
// same 64-block batch at workers=1 vs GOMAXPROCS. Outputs are
// byte-identical (TestBatchDeterministicAcrossWorkers in package
// blockstore); only the wall clock changes.
func BenchmarkWriteBatchSerial(b *testing.B)   { benchWriteBatch(b, 1) }
func BenchmarkWriteBatchParallel(b *testing.B) { benchWriteBatch(b, -1) }

// benchUpdateBatch times a 64-patch UpdateBlocks batch against a
// pre-written 64-block partition (direct version slots, no overflow).
func benchUpdateBatch(b *testing.B, workers int) {
	data := []byte("batch update benchmark block content....")
	patches := make([]blockstore.BlockPatch, 64)
	for blk := range patches {
		patches[blk] = blockstore.BlockPatch{
			Block: blk,
			Patch: update.Patch{DeleteStart: 0, DeleteCount: 5, InsertPos: 0, Insert: []byte("patch")},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := writeBenchStore(b, workers)
		batch := p.Batch()
		for blk := 0; blk < 64; blk++ {
			batch.Write(blk, data)
		}
		if err := batch.Apply(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := p.UpdateBlocks(patches); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateBatchSerial and BenchmarkUpdateBatchParallel commit
// the same 64-patch update batch at workers=1 vs GOMAXPROCS.
func BenchmarkUpdateBatchSerial(b *testing.B)   { benchUpdateBatch(b, 1) }
func BenchmarkUpdateBatchParallel(b *testing.B) { benchUpdateBatch(b, -1) }

// benchRangePartition builds a 64-block partition with 44 written
// blocks whose unaligned range [2, 45] decomposes into ~11 prefix
// covers — one PCR → sequence → decode reaction each, the unit of
// read-engine parallelism. bindingCache sizes the store binding cache
// (0 = default, negative = disabled).
func benchRangePartition(b *testing.B, workers, bindingCache int) *Partition {
	b.Helper()
	sys, err := New(Options{Seed: 9, MaxPartitions: 1, TreeDepth: 3, Workers: workers, BindingCache: bindingCache})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.CreatePartition("bench")
	if err != nil {
		b.Fatal(err)
	}
	for blk := 2; blk <= 45; blk++ {
		if err := p.WriteBlock(blk, []byte("parallel range benchmark block content")); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

func benchReadRange(b *testing.B, workers, bindingCache int) {
	p := benchRangePartition(b, workers, bindingCache)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReadRange(2, 45); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRangeSerial is the workers=1 baseline for the parallel
// read engine. Iterations after the first run against a warm store
// binding cache, the steady state of repeated range reads.
func BenchmarkReadRangeSerial(b *testing.B) { benchReadRange(b, 1, 0) }

// BenchmarkReadRangeParallel runs the same multi-cover range read with
// GOMAXPROCS workers; compare against BenchmarkReadRangeSerial. Outputs
// are byte-identical (see TestParallelMatchesSequential in package
// blockstore); only the wall clock changes.
func BenchmarkReadRangeParallel(b *testing.B) { benchReadRange(b, -1, 0) }

// BenchmarkReadRangeNoBindingCache disables the store binding cache:
// every reaction re-aligns every (species, primer) pair. The gap to
// BenchmarkReadRangeSerial is the cross-reaction binding reuse win
// (outputs are byte-identical — TestBindingCacheByteIdentity).
func BenchmarkReadRangeNoBindingCache(b *testing.B) { benchReadRange(b, 1, -1) }

func benchReadBlocks(b *testing.B, workers int) {
	p := benchRangePartition(b, workers, 0)
	batch := []int{2, 7, 12, 19, 25, 31, 38, 45}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Read(ReadRequest{Blocks: batch}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBlocksSerial and BenchmarkReadBlocksParallel compare the
// batched random-access path at workers=1 vs GOMAXPROCS.
func BenchmarkReadBlocksSerial(b *testing.B)   { benchReadBlocks(b, 1) }
func BenchmarkReadBlocksParallel(b *testing.B) { benchReadBlocks(b, -1) }

// BenchmarkBlockRead measures the full wet read path (PCR + sequencing
// + decode) on a small partition.
func BenchmarkBlockRead(b *testing.B) {
	sys, err := New(Options{Seed: 9, MaxPartitions: 1, TreeDepth: 3})
	if err != nil {
		b.Fatal(err)
	}
	p, err := sys.CreatePartition("bench")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := p.WriteBlock(i, []byte("benchmark block content")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReadBlock(i % 8); err != nil {
			b.Fatal(err)
		}
	}
}
