package dnastore_test

import (
	"errors"
	"fmt"

	"dnastore"
)

// ExampleSystem_Advance ages a tube under an accelerated decay profile
// and shows graceful read degradation: the health-aware read reports
// each block's condition with a typed failure class instead of
// aborting on the first casualty.
func ExampleSystem_Advance() {
	prof := dnastore.AcceleratedDecay()
	sys, err := dnastore.New(dnastore.Options{
		Seed: 7, TreeDepth: 3, MaxPartitions: 1, Workers: -1,
		Decay: &prof,
	})
	if err != nil {
		panic(err)
	}
	p, err := sys.CreatePartition("archive")
	if err != nil {
		panic(err)
	}
	for b := 0; b < 4; b++ {
		if err := p.WriteBlock(b, []byte(fmt.Sprintf("record %d", b))); err != nil {
			panic(err)
		}
	}

	// Eight hundred days at ~50x accelerated hazards — over a
	// century on a room-temperature shelf.
	if _, err := sys.Advance(800); err != nil {
		panic(err)
	}
	fmt.Printf("aged %.0f days\n", sys.AgeDays())

	_, health, err := p.ReadBlocksHealth([]int{0, 1, 2, 3})
	if err != nil {
		panic(err)
	}
	for _, h := range health {
		status := "ok"
		switch {
		case errors.Is(h.Err, dnastore.ErrRSMarginExceeded):
			status = "corrupted"
		case errors.Is(h.Err, dnastore.ErrInsufficientCoverage):
			status = "lost coverage"
		}
		fmt.Printf("block %d: %s\n", h.Block, status)
	}
	// Output:
	// aged 800 days
	// block 0: corrupted
	// block 1: ok
	// block 2: corrupted
	// block 3: ok
}

// ExampleSystem_Scrub runs a maintenance pass over an aged tube: cheap
// shallow probes flag blocks whose coverage or Reed-Solomon margin has
// decayed below the policy floors, and the auto policy repairs them by
// re-amplification or re-synthesis. The repaired blocks read back in
// full afterwards.
func ExampleSystem_Scrub() {
	prof := dnastore.AcceleratedDecay()
	sys, err := dnastore.New(dnastore.Options{
		Seed: 7, TreeDepth: 3, MaxPartitions: 1, Workers: -1,
		Decay: &prof,
	})
	if err != nil {
		panic(err)
	}
	p, err := sys.CreatePartition("archive")
	if err != nil {
		panic(err)
	}
	for b := 0; b < 4; b++ {
		if err := p.WriteBlock(b, []byte(fmt.Sprintf("record %d", b))); err != nil {
			panic(err)
		}
	}
	if _, err := sys.Advance(800); err != nil {
		panic(err)
	}

	report, err := sys.Scrub(dnastore.DefaultScrubPolicy())
	if err != nil {
		panic(err)
	}
	fmt.Printf("probed %d blocks, %d flagged, %d failed repair\n",
		report.BlocksProbed, report.BlocksFlagged, report.Failed)

	// The repaired blocks read back in full after maintenance.
	for _, r := range report.Flagged {
		data, err := p.ReadBlock(r.Block)
		if err != nil {
			panic(err)
		}
		fmt.Printf("block %d: %q\n", r.Block, data[:len("record 0")])
	}
	// Output:
	// probed 4 blocks, 2 flagged, 0 failed repair
	// block 0: "record 0"
	// block 2: "record 2"
}
