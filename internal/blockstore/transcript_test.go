package blockstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"dnastore/internal/decay"
	"dnastore/internal/decode"
	"dnastore/internal/dna"
	"dnastore/internal/fault"
	"dnastore/internal/pool"
	"dnastore/internal/rng"
	"dnastore/internal/seqsim"
	"dnastore/internal/update"
)

// errClasses are the sentinels a transcript records an error by: the
// class of an error is the set of these it matches with errors.Is, so
// the transcript pins classification, never message wording.
var errClasses = []struct {
	name string
	err  error
}{
	{"coverage", ErrInsufficientCoverage},
	{"rsmargin", ErrRSMarginExceeded},
	{"decode", decode.ErrDecode},
	{"notfound", ErrBlockNotFound},
	{"range", ErrBlockRange},
	{"scale", ErrDepthScale},
	{"reaction", fault.ErrReactionFailed},
	{"aborted", fault.ErrRunAborted},
	{"contaminated", fault.ErrContaminated},
	{"exhausted", fault.ErrRetryBudgetExhausted},
	{"patchformat", update.ErrPatchFormat},
	{"patchrange", update.ErrPatchRange},
}

func errClass(err error) string {
	if err == nil {
		return "nil"
	}
	var names []string
	for _, c := range errClasses {
		if errors.Is(err, c.err) {
			names = append(names, c.name)
		}
	}
	if len(names) == 0 {
		return "untyped"
	}
	return strings.Join(names, "+")
}

// transcriptModel is the reference content of every written block: its
// payload padded to the block size, with its patches applied in order.
type transcriptModel struct {
	size    int
	payload map[int][]byte
	patches map[int][]update.Patch
}

func (m *transcriptModel) content(t *testing.T, block int) []byte {
	t.Helper()
	data := make([]byte, m.size)
	copy(data, m.payload[block])
	out, err := update.ApplyAll(data, m.patches[block])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// transcript accumulates the record lines of a run.
type transcript struct {
	t     *testing.T
	s     *Store
	model *transcriptModel
	lines []string
}

func (tr *transcript) add(format string, args ...any) {
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

func contentDigest(blocks [][]byte) string {
	h := sha256.New()
	for _, b := range blocks {
		if b == nil {
			h.Write([]byte{0})
			continue
		}
		fmt.Fprintf(h, "\x01%d:", len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func healthLine(h Health) string {
	return fmt.Sprintf("block=%d recovered=%t err=%s units=%d cov=%v missing=%d erased=%d corrected=%d margin=%v",
		h.Block, h.Recovered, errClass(h.Err), h.Units, h.Coverage, h.MissingSlots, h.ErasedSlots, h.Corrected, h.RSMarginUsed)
}

// record appends one call's observations: content digest, error class,
// whether every returned block equals the model (blocks names the
// content slots; nil slots count as not returned), health reports, and
// the store's cumulative counters and tube digest after the call.
func (tr *transcript) record(call string, blocks []int, content [][]byte, err error, health []Health) {
	tr.add("call %s", call)
	tr.add("  content %s err=%s", contentDigest(content), errClass(err))
	model := make([]string, len(blocks))
	for i, b := range blocks {
		switch {
		case i >= len(content) || content[i] == nil:
			model[i] = fmt.Sprintf("%d:none", b)
		case bytes.Equal(content[i], tr.model.content(tr.t, b)):
			model[i] = fmt.Sprintf("%d:ok", b)
		default:
			model[i] = fmt.Sprintf("%d:WRONG", b)
		}
	}
	tr.add("  model %s", strings.Join(model, " "))
	for _, h := range health {
		tr.add("  health %s", healthLine(h))
	}
	st := tr.s.StreamStats()
	tr.add("  costs %+v", tr.s.Costs())
	tr.add("  stream kept=%d residue=%d jobs=%d discarded=%d", st.Kept, st.Residue, st.FinalizeJobs, st.FinalizeDiscarded)
	tr.add("  tube %x", tr.s.TubeDigest())
}

func (tr *transcript) recovery(rep *RecoveryReport) {
	if rep == nil {
		tr.add("  recovery nil")
		return
	}
	tr.add("  recovery %+v", *rep)
}

// TestReadTranscriptGolden is the read engine's oracle: one seeded store
// with a multi-cover partition, a two-log-block overflow chain, an aged
// tube and 5% stage faults, driven through every read form, once per
// decode engine (streaming and batch, in parallel: the two stores share
// nothing). Every call's content digest, error class, health, recovery
// and scrub reports, cost and streaming counters and tube digest must
// match the committed transcript exactly.
func TestReadTranscriptGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("wet-lab simulation is slow")
	}
	for _, engine := range []string{"streaming", "batch"} {
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			golden := fmt.Sprintf("testdata/read_transcript_%s.golden", engine)
			compareTranscript(t, golden, readTranscript(t, engine == "streaming"))
		})
	}
}

// compareTranscript diffs a transcript against its golden file line by
// line, logging the whole transcript on a mismatch.
func compareTranscript(t *testing.T, golden string, got []string) {
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v\ntranscript:\n%s", err, strings.Join(got, "\n"))
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	diffs := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			diffs++
			if diffs <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
	if diffs > 0 {
		t.Logf("%d lines differ; transcript:\n%s", diffs, strings.Join(got, "\n"))
	}
}

// readTranscript drives the transcript store with the streaming or the
// batch decode engine.
func readTranscript(t *testing.T, streaming bool) []string {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.Decode.Streaming = streaming
	prof := decay.Accelerated()
	cfg.Decay = &prof
	inj, err := fault.NewInjector(fault.Uniform(0.05))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = inj
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	model := &transcriptModel{size: p.BlockSize(), payload: map[int][]byte{}, patches: map[int][]update.Patch{}}
	for b := 0; b < 20; b++ {
		data := bytes.Repeat([]byte{byte('A' + b)}, 30+3*b)
		if err := p.WriteBlock(b, data); err != nil {
			t.Fatal(err)
		}
		model.payload[b] = data
	}
	patch := func(b int, pt update.Patch) {
		t.Helper()
		if err := p.UpdateBlock(b, pt); err != nil {
			t.Fatal(err)
		}
		model.patches[b] = append(model.patches[b], pt)
	}
	// Block 5's seven updates fill its two direct slots and spill five
	// patches into a two-log-block overflow chain.
	for i := 0; i < 7; i++ {
		patch(5, update.Patch{InsertPos: i, Insert: []byte(fmt.Sprintf("u%d", i))})
	}
	patch(2, update.Patch{DeleteStart: 1, DeleteCount: 4})
	patch(9, update.Patch{InsertPos: 3, Insert: []byte("nine")})
	patch(9, update.Patch{DeleteStart: 0, DeleteCount: 1, InsertPos: 2, Insert: []byte("9")})
	patch(14, update.Patch{InsertPos: 10, Insert: []byte("fourteen")})
	if _, err := s.Advance(5); err != nil {
		t.Fatal(err)
	}

	tr := &transcript{t: t, s: s, model: model}
	written := func(lo, hi int) []int {
		var out []int
		for b := lo; b <= hi; b++ {
			if _, ok := model.payload[b]; ok {
				out = append(out, b)
			}
		}
		return out
	}

	c, err := p.ReadBlock(5)
	tr.record("ReadBlock(5)", []int{5}, [][]byte{c}, err, nil)
	c, err = p.ReadBlock(9)
	tr.record("ReadBlock(9)", []int{9}, [][]byte{c}, err, nil)
	blocks := []int{0, 5, 9, 12, 14}
	cs, err := p.ReadBlocks(blocks)
	tr.record("ReadBlocks(0,5,9,12,14)", blocks, cs, err, nil)
	cs, err = p.ReadRange(1, 14)
	tr.record("ReadRange(1,14)", written(1, 14), cs, err, nil)
	cs, err = p.ReadRange(3, 6)
	tr.record("ReadRange(3,6)", written(3, 6), cs, err, nil)
	cs, err = p.ReadAll()
	tr.record("ReadAll", written(0, 63), cs, err, nil)

	blocks = []int{2, 5, 9, 17}
	cs, hs, err := p.ReadBlocksHealth(blocks)
	tr.record("ReadBlocksHealth(2,5,9,17)", blocks, cs, err, hs)
	cs, hs, err = p.ReadRangeHealth(0, 11)
	tr.record("ReadRangeHealth(0,11)", written(0, 11), cs, err, hs)
	for _, scale := range []float64{0.5, 2} {
		c, h, err := p.ReadBlockHealth(5, scale)
		tr.record(fmt.Sprintf("ReadBlockHealth(5,%v)", scale), []int{5}, [][]byte{c}, err, []Health{h})
	}

	// Thin block 1 to a coverage shortfall and push block 13 past its RS
	// margin, so supervision has both a curable and a lost block.
	tube := s.Tube()
	for i := 0; i < tube.Len(); i++ {
		if m := tube.MetaAt(i); m.Partition == "alice" && m.Block == 1 {
			tube.SetAbundance(i, tube.Abundance(i)*0.08)
		}
	}
	killSlots(t, s, "alice", 13, 8)
	blocks = []int{1, 5, 9, 13}
	cs, hs, rep, err := p.ReadBlocksSupervised(blocks)
	tr.record("ReadBlocksSupervised(1,5,9,13)", blocks, cs, err, hs)
	tr.recovery(rep)
	cs, hs, rep, err = p.ReadRangeSupervised(4, 12)
	tr.record("ReadRangeSupervised(4,12)", written(4, 12), cs, err, hs)
	tr.recovery(rep)

	srep, err := s.Scrub(DefaultScrubPolicy())
	tr.record("Scrub", nil, nil, err, nil)
	if srep != nil {
		tr.add("  scrub probed=%d flagged=%d repaired=%d failed=%d boosts=%d resyntheses=%d cost=%+v",
			srep.BlocksProbed, srep.BlocksFlagged, srep.Repaired, srep.Failed, srep.Boosts, srep.Resyntheses, srep.Cost)
		for _, f := range srep.Flagged {
			tr.add("  repair block=%d action=%s retries=%d repaired=%t err=%s health{%s}",
				f.Block, f.Action, f.Retries, f.Repaired, errClass(f.Err), healthLine(f.Health))
		}
	}

	// DecodeReads gets an external read sample of block 5's own strands;
	// its overflow chain is still chased on the store's tube.
	sample := pool.New()
	for i := 0; i < tube.Len(); i++ {
		if m := tube.MetaAt(i); m.Partition == "alice" && m.Block == 5 && tube.Abundance(i) > 0 {
			sample.Add(tube.SeqAt(i), tube.Abundance(i), m)
		}
	}
	reads, err := seqsim.Sample(rng.New(77), sample, 900, seqsim.Profile{Rates: s.Config().Rates})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		seqs[i] = r.Seq
	}
	bv, err := p.DecodeReads(seqs, 5)
	c = nil
	if err == nil {
		c, err = update.ApplyAll(bv.Data, bv.Patches)
	}
	tr.record("DecodeReads(5)", []int{5}, [][]byte{c}, err, nil)
	return tr.lines
}
