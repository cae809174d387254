// Batch: ingest a whole object and an update stream with staged batch
// commits. One Batch.Apply plans version slots for every staged
// operation, encodes and synthesizes all units across the configured
// workers (byte-identical at any worker count), and lands in the tube
// under a single short lock — the way a rewritable DNA store ingests
// data, rather than one block per lock acquisition.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"time"

	"dnastore"
)

func main() {
	// All CPUs: the batch engine fans unit encode + synthesis the same
	// way the read engine fans PCR reactions.
	sys, err := dnastore.New(dnastore.Options{Seed: 42, Workers: -1})
	if err != nil {
		log.Fatal(err)
	}
	ledger, err := sys.CreatePartition("ledger")
	if err != nil {
		log.Fatal(err)
	}

	// Stage a 64-block object and commit it in one batch.
	batch := ledger.Batch()
	for i := 0; i < 64; i++ {
		batch.Write(i, []byte(fmt.Sprintf("ledger record %02d: opening balance", i)))
	}
	t0 := time.Now()
	if err := batch.Apply(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed %d blocks (%d strands) in one batch in %v\n",
		batch.Len(), sys.Costs().StrandsSynthesized, time.Since(t0).Round(time.Millisecond))

	// An update stream lands as one batch too; several patches on one
	// block occupy consecutive version slots, overflow chains included.
	err = ledger.UpdateBlocks([]dnastore.BlockPatch{
		{Block: 3, Patch: dnastore.Patch{DeleteStart: 26, DeleteCount: 7, InsertPos: 26, Insert: []byte("revised")}},
		{Block: 3, Patch: dnastore.Patch{InsertPos: 0, Insert: []byte("[audited] ")}},
		{Block: 17, Patch: dnastore.Patch{DeleteStart: 26, DeleteCount: 7, InsertPos: 26, Insert: []byte("closing")}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Batches are atomic: a conflicting op fails the whole commit with a
	// typed per-op report and nothing is written.
	err = ledger.Batch().
		Write(3, []byte("overwrite attempt")).
		Update(900, dnastore.Patch{Insert: []byte("never written")}).
		Apply()
	var be *dnastore.BatchError
	if errors.As(err, &be) {
		for _, op := range be.Ops {
			fmt.Printf("rejected op %d on block %d (write-once: %v, unwritten: %v)\n",
				op.Index, op.Block,
				errors.Is(op, dnastore.ErrBlockWritten), errors.Is(op, dnastore.ErrBlockNotFound))
		}
	}

	// Read the updated blocks back through the full wet protocol.
	res, err := ledger.Read(dnastore.ReadRequest{Blocks: []int{3, 17}})
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range res.Content {
		fmt.Printf("block %d: %q\n", res.Health[i].Block, bytes.TrimRight(c, "\x00"))
	}
}
