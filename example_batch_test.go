package dnastore_test

import (
	"bytes"
	"errors"
	"fmt"

	"dnastore"
)

// ExamplePartition_Batch stages a small object and an update in one
// batch, commits it atomically with the unit synthesis fanned across
// all CPUs, and reads the blocks back through the full wet protocol.
func ExamplePartition_Batch() {
	sys, err := dnastore.New(dnastore.Options{Seed: 1, TreeDepth: 3, MaxPartitions: 1, Workers: -1})
	if err != nil {
		panic(err)
	}
	p, err := sys.CreatePartition("docs")
	if err != nil {
		panic(err)
	}

	err = p.Batch().
		Write(0, []byte("stage writes and updates,")).
		Write(1, []byte("commit them in one batch")).
		Update(0, dnastore.Patch{DeleteStart: 0, DeleteCount: 5, Insert: []byte("fan")}).
		Apply()
	if err != nil {
		panic(err)
	}

	// A failing batch reports every conflicting operation and commits
	// nothing: block 1 is already written, block 63 never was.
	err = p.Batch().
		Write(1, []byte("again")).
		Update(63, dnastore.Patch{Insert: []byte("x")}).
		Apply()
	var be *dnastore.BatchError
	if errors.As(err, &be) {
		for _, op := range be.Ops {
			fmt.Printf("op %d on block %d: write-once violation: %v\n",
				op.Index, op.Block, errors.Is(op, dnastore.ErrBlockWritten))
		}
	}

	res, err := p.Read(dnastore.ReadRequest{Blocks: []int{0, 1}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s %s\n",
		bytes.TrimRight(res.Content[0], "\x00"), bytes.TrimRight(res.Content[1], "\x00"))
	// Output:
	// op 0 on block 1: write-once violation: true
	// op 1 on block 63: write-once violation: false
	// fan writes and updates, commit them in one batch
}
