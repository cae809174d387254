package dnastore_test

import (
	"fmt"

	"dnastore"
)

// The store-level binding cache makes repeated and range reads cheap:
// primer ⇄ species alignments are pure functions of their sequences,
// so every PCR of the system reuses the alignments earlier reactions
// computed. Every system has one, and BindingStats reports how much
// wet-simulation work it absorbed.
func ExampleOptions_bindingCache() {
	sys, err := dnastore.New(dnastore.Options{
		Seed:          1,
		MaxPartitions: 1,
		TreeDepth:     3,
	})
	if err != nil {
		panic(err)
	}
	p, err := sys.CreatePartition("docs")
	if err != nil {
		panic(err)
	}
	if err := p.WriteBlock(0, []byte("hello, molecular world")); err != nil {
		panic(err)
	}
	first, err := p.ReadBlock(0) // cold: every primer ⇄ species pair is aligned
	if err != nil {
		panic(err)
	}
	second, err := p.ReadBlock(0) // warm: the tube is unchanged, alignments replay
	if err != nil {
		panic(err)
	}
	st := sys.BindingStats()
	fmt.Println("reads equal:", string(first) == string(second))
	fmt.Println("warm read hit the cache:", st.RowHits+st.Hits > 0)
	// Output:
	// reads equal: true
	// warm read hit the cache: true
}
