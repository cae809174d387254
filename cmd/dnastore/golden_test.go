package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenSteps is a fixed command sequence on a fresh journal with the
// accelerated decay profile. It runs every journaled verb once, then
// the read-only verbs that report on the result.
var goldenSteps = [][]string{
	{"create", "docs"},
	{"write", "docs", "0", "block zero"},
	{"writebatch", "docs", "1", "block one", "2", "block two"},
	{"update", "docs", "0", "0", "5", "0", "BLOCK"},
	{"updatebatch", "docs", "1", "0", "5", "0", "BLOCK", "2", "6", "3", "6", "TWO"},
	{"advance", "710"},
	{"scrub"},
	{"read", "docs", "1"},
	{"range", "docs", "1", "2"},
	{"health", "docs", "0", "2"},
	{"costs"},
	{"digest"},
}

// runGolden runs goldenSteps and returns the journal file's bytes and
// the transcript of every command line and what it printed.
func runGolden(t *testing.T) (journal []byte, transcript string) {
	t.Helper()
	j := journalPath(t)
	var tr strings.Builder
	for i, args := range goldenSteps {
		decay := ""
		if i == 0 {
			decay = "accelerated"
		}
		out, err := captureStdout(t, func() error { return runCommand(j, 1, decay, args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		fmt.Fprintf(&tr, "$ dnastore %s\n%s", strings.Join(args, " "), out)
	}
	raw, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	return raw, tr.String()
}

// TestJournalGolden pins what the CLI persists and prints: the framed
// journal bytes of goldenSteps and their stdout, digest included, must
// match the committed files byte for byte. A change here means old
// journals replay to a different tube or scripts parse different text.
func TestJournalGolden(t *testing.T) {
	journal, transcript := runGolden(t)
	wantJournal, err := os.ReadFile("testdata/golden.journal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal, wantJournal) {
		t.Errorf("journal bytes differ from testdata/golden.journal:\n got  %q\n want %q", journal, wantJournal)
	}
	wantTranscript, err := os.ReadFile("testdata/golden.transcript")
	if err != nil {
		t.Fatal(err)
	}
	if transcript != string(wantTranscript) {
		t.Errorf("transcript differs from testdata/golden.transcript:\n got\n%s\n want\n%s", transcript, wantTranscript)
	}
}
