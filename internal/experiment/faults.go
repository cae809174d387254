package experiment

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"

	"dnastore/internal/blockstore"
	"dnastore/internal/dna"
	"dnastore/internal/fault"
)

// faultBlocks is the campaign payload size: big enough that per-stage
// fault rates bite every run, small enough to keep the study fast.
const faultBlocks = 16

// FaultArm is one campaign run: a fault rate crossed with supervision
// on or off.
type FaultArm struct {
	Rate       float64
	Supervised bool
	// SuccessFrac is the fraction of committed blocks read back
	// correctly (content verified byte-for-byte against the payload).
	SuccessFrac float64
	// Wrong counts blocks read back with content and no error whose
	// bytes differ from the payload: silent corruption, which a typed
	// failure is not.
	Wrong int
	// Reads is the sequencing reads the arm's read sweep consumed;
	// ExtraReadFrac is its overhead relative to the fault-free arm
	// (the recovery engine's price).
	Reads         int
	ExtraReadFrac float64
	// P99Attempts and MaxAttempts summarize the per-block wet read
	// counts (1 = no retries). Unsupervised arms never retry.
	P99Attempts int
	MaxAttempts int
	Retries     int
	Hedges      int
	Exhausted   int
	Quarantined int
}

// FaultsResult reports the operational fault-injection study: seeded
// fault plans at increasing per-stage rates, each run with and without
// the supervised recovery engine, plus the two correctness gates the
// CI smoke advertises.
type FaultsResult struct {
	Blocks int
	Rates  []float64
	// Arms holds, per rate, the unsupervised then the supervised run.
	Arms []FaultArm
	// Identical is the no-op gate: a store with a zero-rate injector
	// is byte-identical (tube digest and read outputs) to one with no
	// injector at all.
	Identical bool
	// Deterministic is the campaign gate: the highest-rate supervised
	// run produces identical digests, contents, and recovery reports
	// at 1 worker and at the study's full worker count.
	Deterministic bool
}

// faultStore builds one campaign store: a 16-block partition written
// through the batch engine under the given fault plan. plan nil means
// no injector at all (the no-op baseline); supervised arms the write
// QC and the read-side recovery policy.
func faultStore(primers []dna.Seq, plan *fault.Plan, supervised bool, workers int) (*blockstore.Store, *blockstore.Partition, [][]byte, error) {
	cfg := blockstore.DefaultConfig()
	cfg.Seed = 91
	cfg.TreeDepth = 3
	cfg.Geometry.IndexLen = 6
	cfg.Workers = workers
	if plan != nil {
		inj, err := fault.NewInjector(*plan)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Faults = inj
	}
	if supervised {
		pol := fault.DefaultRetryPolicy()
		cfg.Retry = &pol
	}
	s, err := blockstore.New(cfg, primers)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := s.CreatePartition("campaign")
	if err != nil {
		return nil, nil, nil, err
	}
	payload := make([][]byte, faultBlocks)
	blocks := make(map[int][]byte, faultBlocks)
	for i := range payload {
		payload[i] = []byte(fmt.Sprintf("fault study block %02d payload", i))
		blocks[i] = payload[i]
	}
	if err := p.WriteBlocks(blocks); err != nil {
		return nil, nil, nil, err
	}
	return s, p, payload, nil
}

// successFrac returns the fraction of blocks whose read-back content
// matches the committed payload, and how many blocks came back with
// content that does not: a failed block's content is nil, so those
// were returned wrong with no error.
func successFrac(content [][]byte, payload [][]byte) (float64, int) {
	ok, wrong := 0, 0
	for i, c := range content {
		switch {
		case c == nil:
		case len(c) >= len(payload[i]) && bytes.Equal(c[:len(payload[i])], payload[i]):
			ok++
		default:
			wrong++
		}
	}
	return float64(ok) / float64(len(payload)), wrong
}

// runFaultArm executes one campaign run and measures it.
func runFaultArm(primers []dna.Seq, rate float64, supervised bool, workers int) (FaultArm, error) {
	plan := fault.Uniform(rate)
	s, p, payload, err := faultStore(primers, &plan, supervised, workers)
	if err != nil {
		return FaultArm{}, err
	}
	blocks := make([]int, faultBlocks)
	for i := range blocks {
		blocks[i] = i
	}
	arm := FaultArm{Rate: rate, Supervised: supervised, P99Attempts: 1, MaxAttempts: 1}
	before := s.Costs().ReadsSequenced
	if supervised {
		res, err := p.Read(blockstore.ReadRequest{Blocks: blocks, Mode: blockstore.ReadSupervised})
		if err != nil {
			return FaultArm{}, err
		}
		arm.SuccessFrac, arm.Wrong = successFrac(res.Content, payload)
		rep := res.Recovery
		attempts := append([]int(nil), rep.Attempts...)
		sort.Ints(attempts)
		arm.P99Attempts = attempts[(99*len(attempts)-1)/100]
		arm.MaxAttempts = rep.MaxAttempts
		arm.Retries = rep.Retries
		arm.Hedges = rep.Hedges
		arm.Exhausted = rep.Exhausted
		arm.Quarantined = rep.QuarantinedSpecies
	} else {
		res, err := p.Read(blockstore.ReadRequest{Blocks: blocks, Mode: blockstore.ReadHealth})
		if err != nil {
			return FaultArm{}, err
		}
		arm.SuccessFrac, arm.Wrong = successFrac(res.Content, payload)
	}
	arm.Reads = s.Costs().ReadsSequenced - before
	return arm, nil
}

// identicalGate checks the fault engine's no-op contract at study
// scale: a zero-rate injector must leave the tube digest and every
// read output byte-identical to a store with no injector configured.
func identicalGate(primers []dna.Seq, workers int) (bool, error) {
	ns, np, _, err := faultStore(primers, nil, false, workers)
	if err != nil {
		return false, err
	}
	zero := fault.Uniform(0)
	zs, zp, _, err := faultStore(primers, &zero, false, workers)
	if err != nil {
		return false, err
	}
	if ns.TubeDigest() != zs.TubeDigest() {
		return false, nil
	}
	blocks := make([]int, faultBlocks)
	for i := range blocks {
		blocks[i] = i
	}
	req := blockstore.ReadRequest{Blocks: blocks, Mode: blockstore.ReadHealth}
	nres, err := np.Read(req)
	if err != nil {
		return false, err
	}
	zres, err := zp.Read(req)
	if err != nil {
		return false, err
	}
	if !reflect.DeepEqual(nres.Content, zres.Content) {
		return false, nil
	}
	return ns.TubeDigest() == zs.TubeDigest(), nil
}

// deterministicGate reruns the highest-rate supervised campaign at 1
// worker and at the full worker count and demands identical tubes,
// contents, and recovery reports.
func deterministicGate(primers []dna.Seq, rate float64, workers int) (bool, error) {
	alt := workers
	if alt <= 1 {
		alt = 4
	}
	type snap struct {
		digest  [32]byte
		content [][]byte
		rep     *blockstore.RecoveryReport
	}
	run := func(w int) (snap, error) {
		plan := fault.Uniform(rate)
		s, p, _, err := faultStore(primers, &plan, true, w)
		if err != nil {
			return snap{}, err
		}
		blocks := make([]int, faultBlocks)
		for i := range blocks {
			blocks[i] = i
		}
		res, err := p.Read(blockstore.ReadRequest{Blocks: blocks, Mode: blockstore.ReadSupervised})
		if err != nil {
			return snap{}, err
		}
		return snap{s.TubeDigest(), res.Content, res.Recovery}, nil
	}
	a, err := run(1)
	if err != nil {
		return false, err
	}
	b, err := run(alt)
	if err != nil {
		return false, err
	}
	return a.digest == b.digest &&
		reflect.DeepEqual(a.content, b.content) &&
		reflect.DeepEqual(a.rep, b.rep), nil
}

// FaultsStudy runs the operational fault-injection campaign: per-stage
// fault rates 0, 5% and 10%, each crossed with supervision off and on.
// Every run is seeded, so the whole study is reproducible read for
// read at any worker count — which the Deterministic gate verifies
// directly, alongside the Identical no-op gate.
func FaultsStudy(workers int) (*FaultsResult, error) {
	if workers < 1 {
		workers = 1
	}
	primers, err := SearchPrimers(91, 2)
	if err != nil {
		return nil, err
	}
	r := &FaultsResult{Blocks: faultBlocks, Rates: []float64{0, 0.05, 0.10}}
	var baseline int
	for _, rate := range r.Rates {
		for _, supervised := range []bool{false, true} {
			arm, err := runFaultArm(primers, rate, supervised, workers)
			if err != nil {
				return nil, err
			}
			if rate == 0 && !supervised {
				baseline = arm.Reads
			}
			if baseline > 0 {
				arm.ExtraReadFrac = float64(arm.Reads-baseline) / float64(baseline)
			}
			r.Arms = append(r.Arms, arm)
		}
	}
	if r.Identical, err = identicalGate(primers, workers); err != nil {
		return nil, err
	}
	top := r.Rates[len(r.Rates)-1]
	if r.Deterministic, err = deterministicGate(primers, top, workers); err != nil {
		return nil, err
	}
	return r, nil
}

// PrintFaultsStudy formats the fault-injection campaign.
func PrintFaultsStudy(w io.Writer, r *FaultsResult) {
	fmt.Fprintf(w, "Operational fault injection (%d blocks, per-stage rates crossed with supervision)\n", r.Blocks)
	fmt.Fprintf(w, "  %6s %11s %9s %6s %12s %5s %8s %7s %10s %11s\n",
		"rate", "supervised", "success", "wrong", "extra reads", "p99", "retries", "hedges", "exhausted", "quarantined")
	for _, a := range r.Arms {
		sup := "off"
		if a.Supervised {
			sup = "on"
		}
		fmt.Fprintf(w, "  %5.0f%% %11s %8.1f%% %6d %11.1f%% %5d %8d %7d %10d %11d\n",
			a.Rate*100, sup, a.SuccessFrac*100, a.Wrong, a.ExtraReadFrac*100,
			a.P99Attempts, a.Retries, a.Hedges, a.Exhausted, a.Quarantined)
	}
	if r.Identical {
		fmt.Fprintf(w, "  zero-rate injector byte-identical to no injector: yes\n")
	} else {
		fmt.Fprintf(w, "  WARNING: zero-rate injector diverged from the nil-injector store\n")
	}
	if r.Deterministic {
		fmt.Fprintf(w, "  supervised campaign deterministic across worker counts: yes\n")
	} else {
		fmt.Fprintf(w, "  WARNING: supervised campaign diverged across worker counts\n")
	}
}
