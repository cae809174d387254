package dnastore_test

import (
	"fmt"

	"dnastore"
)

// One decode engine serves two sequencing protocols. By default reads
// use the floor-stopped stream: reads are clustered by a MinHash sketch
// index as they come off the sequencer, each strand's coverage is
// tracked per address slot, and the run stops — or, in multi-block
// reactions, ejects off-target molecules nanopore-style — once every
// target's coverage floor is met. Options.BatchDecode picks the full
// budget instead: every read budget is sequenced, then decoded by the
// same engine in one pass. Both produce the same content, and the
// stream sequences strictly fewer reads. Costs.ReadsSequenced and
// Costs.ReadsEjected report the split.
func ExampleOptions_batchDecode() {
	read := func(batch bool) (content []byte, c dnastore.Costs) {
		sys, err := dnastore.New(dnastore.Options{
			Seed:          7,
			MaxPartitions: 1,
			TreeDepth:     3,
			BatchDecode:   batch,
		})
		if err != nil {
			panic(err)
		}
		p, err := sys.CreatePartition("docs")
		if err != nil {
			panic(err)
		}
		if err := p.WriteBlock(2, []byte("same bytes either way")); err != nil {
			panic(err)
		}
		content, err = p.ReadBlock(2)
		if err != nil {
			panic(err)
		}
		return content, sys.Costs()
	}
	batched, bc := read(true)
	streamed, sc := read(false)
	fmt.Println("contents equal:", string(batched) == string(streamed))
	fmt.Println("streaming sequenced fewer reads:", sc.ReadsSequenced < bc.ReadsSequenced)
	// Output:
	// contents equal: true
	// streaming sequenced fewer reads: true
}
