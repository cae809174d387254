package dnastore_test

import (
	"bytes"
	"fmt"

	"dnastore"
)

// ExampleOptions_faults arms seeded operational fault injection — PCR
// failures, aborted sequencing runs, synthesis dropout, contamination —
// and reads through the supervised recovery engine. Faults fire from
// the plan's own deterministic stream, so the whole run (which faults
// hit, which retries cure them) reproduces exactly; with Faults nil
// the system is byte-identical to one built without fault hooks.
func ExampleOptions_faults() {
	plan := dnastore.UniformFaults(0.5)
	pol := dnastore.DefaultRetryPolicy()
	sys, err := dnastore.New(dnastore.Options{
		Seed: 5, TreeDepth: 3, MaxPartitions: 1, Workers: -1,
		Faults: &plan, Retry: &pol,
	})
	if err != nil {
		panic(err)
	}
	p, err := sys.CreatePartition("ops")
	if err != nil {
		panic(err)
	}
	for b := 0; b < 4; b++ {
		if err := p.WriteBlock(b, []byte(fmt.Sprintf("record %d", b))); err != nil {
			panic(err)
		}
	}

	// The supervised read retries failed reactions with escalating
	// sequencing depth and quarantines contaminated pools; every block
	// comes back despite the 50% per-stage fault rate.
	res, err := p.Read(dnastore.ReadRequest{Blocks: []int{0, 1, 2, 3}, Mode: dnastore.ReadSupervised})
	if err != nil {
		panic(err)
	}
	for i, data := range res.Content {
		fmt.Printf("block %d: %q\n", res.Health[i].Block, bytes.TrimRight(data, "\x00"))
	}
	report := res.Recovery
	fmt.Printf("failures %d, recovered %d, retries %d\n",
		report.Failures, report.Recovered, report.Retries)

	stats := sys.FaultStats()
	fmt.Printf("injected: %d PCR failures, %d aborted runs\n",
		stats.PCRFailures, stats.SeqAborts)
	// Output:
	// block 0: "record 0"
	// block 1: "record 1"
	// block 2: "record 2"
	// block 3: "record 3"
	// failures 2, recovered 2, retries 3
	// injected: 3 PCR failures, 2 aborted runs
}
