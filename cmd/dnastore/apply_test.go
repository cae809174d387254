package main

import (
	"testing"

	"dnastore"
)

// TestReplayEqualsLive runs each journaled verb down the live path
// (parse, apply, append) on one system that is never rebuilt, and
// checks after every command that a fresh load and replay of the
// journal rebuilds the same tube.
func TestReplayEqualsLive(t *testing.T) {
	path := journalPath(t)
	j, _, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	prof := dnastore.AcceleratedDecay()
	j.Decay = &prof
	live, err := j.replay(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"create", "docs"},
		{"write", "docs", "0", "block zero"},
		{"writebatch", "docs", "1", "block one", "2", "block two"},
		{"update", "docs", "0", "0", "5", "0", "BLOCK"},
		{"updatebatch", "docs", "1", "0", "5", "0", "BLOCK", "2", "6", "3", "6", "TWO"},
		{"advance", "300"},
		{"scrub"},
	} {
		t.Run(args[0], func(t *testing.T) {
			e, err := parseEntry(args)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := apply(live, e); err != nil {
				t.Fatal(err)
			}
			if err := j.append(e); err != nil {
				t.Fatal(err)
			}
			fresh, _, err := loadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := fresh.replay(1)
			if err != nil {
				t.Fatal(err)
			}
			if replayed.TubeDigest() != live.TubeDigest() {
				t.Errorf("%v: replayed tube digest differs from the live one", args)
			}
		})
	}
}
