// Versioned: a document that accumulates many updates. The first two
// patches occupy the block's own version slots; from the third on, the
// store transparently chains them through overflow log blocks at the top
// of the partition's address space (Section 5.3's pointer mechanism) —
// and a single logical read still returns the fully patched document.
package main

import (
	"fmt"
	"log"

	"dnastore"
)

func main() {
	sys, err := dnastore.New(dnastore.Options{Seed: 99, TreeDepth: 4})
	if err != nil {
		log.Fatal(err)
	}
	notes, err := sys.CreatePartition("notes")
	if err != nil {
		log.Fatal(err)
	}

	const block = 5
	before := sys.Costs().StrandsSynthesized
	if err := notes.WriteBlock(block, []byte("v0: draft.")); err != nil {
		log.Fatal(err)
	}
	// One block is one encoding unit, so the write's strands are the
	// strands per unit.
	perUnit := sys.Costs().StrandsSynthesized - before
	fmt.Println("wrote:", "v0: draft.")

	// Five successive edits: each prepends a revision marker. DNA cannot
	// be rewritten, so every edit is a new synthesized patch unit.
	for i := 1; i <= 5; i++ {
		marker := fmt.Sprintf("v%d<", i)
		patch := dnastore.Patch{InsertPos: 0, Insert: []byte(marker)}
		if err := notes.UpdateBlock(block, patch); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("logged update %d (block now has %d versions", i, i+1)
		if i > 2 {
			fmt.Printf(", overflowed into a log block")
		}
		fmt.Println(")")
	}

	// One logical read: the store retrieves the block and its direct
	// updates in one PCR (shared index prefix), follows the overflow
	// pointer with another, and applies all patches in order.
	data, err := notes.ReadBlock(block)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal content: %q\n", trim(data))
	fmt.Printf("expected:      %q\n", "v5<v4<v3<v2<v1<v0: draft.")

	c := sys.Costs()
	fmt.Printf("\ntotals: %d strands synthesized across %d units, %d PCR reactions for the read\n",
		c.StrandsSynthesized, c.StrandsSynthesized/perUnit, c.PCRReactions)
}

func trim(b []byte) string {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return string(b[:end])
}
