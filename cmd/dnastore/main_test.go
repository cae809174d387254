package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnastore"
)

// journalPath returns a fresh journal file in a test temp dir.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "tube.json")
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	j := journalPath(t)
	steps := [][]string{
		{"create", "docs"},
		{"write", "docs", "3", "hello molecular world"},
		{"read", "docs", "3"},
	}
	for _, args := range steps {
		if err := runCommand(j, -1, "", args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	// The journal persists across invocations in the framed format.
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), journalMagic) {
		t.Error("journal not in the framed format")
	}
	if !strings.Contains(string(data), `"op":"write"`) {
		t.Error("journal missing write entry")
	}
}

func TestUpdateThroughJournal(t *testing.T) {
	j := journalPath(t)
	steps := [][]string{
		{"create", "docs"},
		{"write", "docs", "0", "hello world"},
		{"update", "docs", "0", "0", "5", "0", "howdy"},
		{"read", "docs", "0"},
	}
	for _, args := range steps {
		if err := runCommand(j, -1, "", args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	costs, err := captureStdout(t, func() error { return runCommand(j, -1, "", []string{"costs"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"PCR reactions:", "reads ejected:"} {
		if !strings.Contains(costs, line) {
			t.Errorf("costs output lacks %q:\n%s", line, costs)
		}
	}
	// Replay from the journal must reproduce the updated state.
	jj, _, err := loadJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(jj.Entries) != 3 {
		t.Fatalf("journal entries %d want 3", len(jj.Entries))
	}
	sys, err := jj.replay(-1)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := sys.Partition("docs")
	if !ok {
		t.Fatal("partition lost in replay")
	}
	got, err := p.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "howdy world") {
		t.Errorf("replayed content %q", got[:12])
	}
}

// TestUpdateAcknowledgements: each of five updates of one block, the
// last three landing in its overflow log, prints its own
// acknowledgement, and a read returns the content all five produced.
// An acknowledgement names no update count: the block table records
// the version slots a block has used, which stop at 3.
func TestUpdateAcknowledgements(t *testing.T) {
	j := journalPath(t)
	for _, args := range [][]string{{"create", "docs"}, {"write", "docs", "0", "hello world"}} {
		if err := runCommand(j, -1, "", args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	for i := 1; i <= 5; i++ {
		args := []string{"update", "docs", "0", "0", "1", "0", fmt.Sprint(i)}
		out, err := captureStdout(t, func() error { return runCommand(j, -1, "", args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if want := "logged update for block 0 of \"docs\"\n"; out != want {
			t.Errorf("update %d printed %q, want %q", i, out, want)
		}
	}
	out, err := captureStdout(t, func() error { return runCommand(j, -1, "", []string{"read", "docs", "0"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "5ello world") {
		t.Errorf("read after five updates printed %q, want the fifth update applied", out)
	}
}

// TestBatchCommandsThroughJournal covers the writebatch/updatebatch
// verbs: one journal entry per batch, replayed as one batch commit so
// the rebuilt tube matches the original run.
func TestBatchCommandsThroughJournal(t *testing.T) {
	j := journalPath(t)
	steps := [][]string{
		{"create", "docs"},
		{"writebatch", "docs", "0", "block zero", "1", "block one", "2", "block two"},
		{"updatebatch", "docs", "0", "0", "5", "0", "first", "1", "0", "5", "0", "second"},
		{"read", "docs", "0"},
	}
	for _, args := range steps {
		if err := runCommand(j, -1, "", args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	jj, _, err := loadJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(jj.Entries) != 3 {
		t.Fatalf("journal entries %d want 3 (batches journal as one entry)", len(jj.Entries))
	}
	if jj.Entries[1].Op != "writebatch" || len(jj.Entries[1].Items) != 3 {
		t.Errorf("entry 1 = %q with %d items", jj.Entries[1].Op, len(jj.Entries[1].Items))
	}
	if jj.Entries[2].Op != "updatebatch" || len(jj.Entries[2].Items) != 2 {
		t.Errorf("entry 2 = %q with %d items", jj.Entries[2].Op, len(jj.Entries[2].Items))
	}
	sys, err := jj.replay(-1)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := sys.Partition("docs")
	if !ok {
		t.Fatal("partition lost in replay")
	}
	for block, want := range map[int]string{0: "first zero", 1: "second one", 2: "block two"} {
		got, err := p.ReadBlock(block)
		if err != nil {
			t.Fatalf("block %d: %v", block, err)
		}
		if !strings.HasPrefix(string(got), want) {
			t.Errorf("block %d content %q want prefix %q", block, got[:12], want)
		}
	}
}

func TestCommandErrors(t *testing.T) {
	j := journalPath(t)
	cases := [][]string{
		{"create"},                                        // missing name
		{"write", "ghost", "0", "x"},                      // unknown partition
		{"read", "ghost", "0"},                            // unknown partition
		{"write", "ghost", "NaN", "x"},                    // bad number
		{"update", "ghost", "0", "0"},                     // wrong arity
		{"writebatch", "ghost", "0"},                      // missing text for the pair
		{"writebatch", "ghost", "0", "x"},                 // unknown partition
		{"updatebatch", "ghost", "0", "0", "5", "0"},      // incomplete 5-tuple
		{"updatebatch", "ghost", "0", "0", "5", "0", "x"}, // unknown partition
		{"range", "ghost", "0", "1"},                      // unknown partition
		{"advance"},                                       // missing days
		{"advance", "soon"},                               // bad number
		{"advance", "-3"},                                 // negative horizon
		{"scrub", "hard"},                                 // wrong arity
		{"health", "ghost", "0", "1"},                     // unknown partition
		{"health", "ghost", "0"},                          // wrong arity
		{"explode"},                                       // unknown command
	}
	for _, args := range cases {
		if err := runCommand(j, -1, "", args); err == nil {
			t.Errorf("%v: expected error", args)
		}
	}
}

func TestCorruptJournal(t *testing.T) {
	j := journalPath(t)
	if err := os.WriteFile(j, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCommand(j, -1, "", []string{"costs"}); err == nil {
		t.Error("corrupt journal accepted")
	}
}

// TestRangeCommand checks that range output labels each entry with its
// own block, including across an unwritten block inside the range.
func TestRangeCommand(t *testing.T) {
	j := journalPath(t)
	steps := [][]string{
		{"create", "docs"},
		{"write", "docs", "0", "block zero"},
		{"write", "docs", "1", "block one"},
		{"write", "docs", "3", "block three"},
	}
	for _, args := range steps {
		if err := runCommand(j, -1, "", args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	for _, tc := range []struct {
		lo, hi string
		want   string
	}{
		{"0", "1", "block 0: block zero\nblock 1: block one\n"},
		{"0", "3", "block 0: block zero\nblock 1: block one\nblock 3: block three\n"},
	} {
		out, err := captureStdout(t, func() error { return runCommand(j, -1, "", []string{"range", "docs", tc.lo, tc.hi}) })
		if err != nil {
			t.Fatalf("range %s %s: %v", tc.lo, tc.hi, err)
		}
		if out != tc.want {
			t.Errorf("range %s %s printed\n%s\nwant\n%s", tc.lo, tc.hi, out, tc.want)
		}
	}
}

// captureStdout runs fn and returns what it printed to standard output.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		io.Copy(&b, r)
		done <- b.String()
	}()
	err = fn()
	os.Stdout = saved
	w.Close()
	return <-done, err
}

// TestAgingThroughJournal exercises the durability verbs end to end:
// advance and scrub journal like writes, and a fresh replay of the
// journal rebuilds the identical aged tube.
func TestAgingThroughJournal(t *testing.T) {
	j := journalPath(t)
	steps := [][]string{
		{"create", "docs"},
		{"write", "docs", "0", "block zero"},
		{"write", "docs", "1", "block one"},
		{"advance", "10"},
		{"scrub"},
		{"health", "docs", "0", "1"},
		{"advance", "5"},
		{"read", "docs", "0"},
	}
	for i, args := range steps {
		decay := ""
		if i == 0 {
			decay = "accelerated"
		}
		if err := runCommand(j, -1, decay, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	jj, _, err := loadJournal(j)
	if err != nil {
		t.Fatal(err)
	}
	if jj.Decay == nil || jj.Decay.Thermal <= 0 {
		t.Fatal("journal lost the decay profile")
	}
	// read/health are diagnostics; the six mutations journal.
	if len(jj.Entries) != 6 {
		t.Fatalf("journal entries %d want 6", len(jj.Entries))
	}
	if jj.Entries[3].Op != "advance" || jj.Entries[3].Days != 10 {
		t.Errorf("entry 3 = %q days %g", jj.Entries[3].Op, jj.Entries[3].Days)
	}
	if jj.Entries[4].Op != "scrub" || jj.Entries[4].Scrub == nil {
		t.Errorf("entry 4 = %q policy %v", jj.Entries[4].Op, jj.Entries[4].Scrub)
	}
	// Replaying twice — at different worker counts — rebuilds the same
	// aged tube byte for byte.
	sysA, err := jj.replay(1)
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := jj.replay(-1)
	if err != nil {
		t.Fatal(err)
	}
	if sysA.TubeDigest() != sysB.TubeDigest() {
		t.Error("replay digests diverge across worker counts")
	}
	if got := sysA.AgeDays(); got != 15 {
		t.Errorf("replayed age %g want 15", got)
	}
}

// TestDecayFlagRules pins the -decay flag contract: only a fresh
// journal accepts a profile, and unknown names are rejected.
func TestDecayFlagRules(t *testing.T) {
	j := journalPath(t)
	if err := runCommand(j, -1, "volcanic", []string{"create", "docs"}); err == nil {
		t.Error("unknown decay profile accepted")
	}
	if err := runCommand(j, -1, "room", []string{"create", "docs"}); err != nil {
		t.Fatal(err)
	}
	if err := runCommand(j, -1, "room", []string{"costs"}); err == nil {
		t.Error("re-specifying decay on an existing journal accepted")
	}
	if err := runCommand(j, -1, "", []string{"costs"}); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceWithoutProfile confirms a decay-free tube still keeps a
// clock: advance is legal, moves time, and changes nothing physical.
func TestAdvanceWithoutProfile(t *testing.T) {
	j := journalPath(t)
	steps := [][]string{
		{"create", "docs"},
		{"write", "docs", "0", "timeless"},
		{"advance", "1000"},
		{"read", "docs", "0"},
	}
	for _, args := range steps {
		if err := runCommand(j, -1, "", args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestExitCode(t *testing.T) {
	if got := exitCode(os.ErrNotExist); got != 1 {
		t.Errorf("generic error -> %d want 1", got)
	}
	if got := exitCode(fmt.Errorf("read: %w", dnastore.ErrInsufficientCoverage)); got != 3 {
		t.Errorf("coverage error -> %d want 3", got)
	}
	if got := exitCode(fmt.Errorf("read: %w", dnastore.ErrRSMarginExceeded)); got != 4 {
		t.Errorf("margin error -> %d want 4", got)
	}
}

func TestTrimZeros(t *testing.T) {
	if got := trimZeros([]byte{'a', 'b', 0, 0}); string(got) != "ab" {
		t.Errorf("trimZeros = %q", got)
	}
	if got := trimZeros([]byte{0, 0}); len(got) != 0 {
		t.Errorf("all zeros -> %q", got)
	}
}
