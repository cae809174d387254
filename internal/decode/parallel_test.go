package decode

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// newPipelineWorkers builds a pipeline with an explicit worker count.
func newPipelineWorkers(t testing.TB, e *encoder, workers int) *Pipeline {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	p, err := New(cfg, e.tree, fwdP, revP, e.unit)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// multiBlockReads encodes several blocks (one with an update version)
// and returns noisy reads plus the expected unit data.
func multiBlockReads(t testing.TB, e *encoder, seed uint64) ([]dna.Seq, map[int][]byte, map[int][]byte) {
	t.Helper()
	r := rng.New(seed)
	want := map[int][]byte{}
	upd := map[int][]byte{}
	var strands []dna.Seq
	for _, block := range []int{3, 144, 531, 700} {
		data := unitData(r, 264)
		want[block] = data
		strands = append(strands, e.encodeUnit(t, block, 0, data)...)
	}
	u := unitData(r, 264)
	upd[531] = u
	strands = append(strands, e.encodeUnit(t, 531, 1, u)...)
	return makeReads(r, strands, 8, channel.Illumina()), want, upd
}

// TestDecodeAllParallelMatchesSerial pins the pipeline's determinism:
// every stage is pure, so a workers=8 decode of every block and of one
// target must reproduce workers=1 exactly — same blocks, same bytes,
// same statistics.
func TestDecodeAllParallelMatchesSerial(t *testing.T) {
	e := newEncoder(t)
	reads, want, upd := multiBlockReads(t, e, 21)
	serial := newPipelineWorkers(t, e, 1)
	fanned := newPipelineWorkers(t, e, 8)

	r1, err := serial.referenceDecode(reads, -1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := fanned.referenceDecode(reads, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("parallel whole-read-set decode differs from serial")
	}
	for block, data := range want {
		res, ok := r8[block]
		if !ok {
			t.Errorf("block %d missing", block)
			continue
		}
		if !bytes.Equal(res.Units[0].Data, data) {
			t.Errorf("block %d data mismatch", block)
		}
	}
	if !bytes.Equal(r8[531].Units[1].Data, upd[531]) {
		t.Error("update version mismatch")
	}

	b1, err := serial.referenceBlock(reads, 531)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := fanned.referenceBlock(reads, 531)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b8) {
		t.Fatal("parallel single-block decode differs from serial")
	}
}

// TestPipelineConcurrentUse drives one pipeline from many goroutines;
// run with -race. The pipeline is immutable, so calls must not
// interfere.
func TestPipelineConcurrentUse(t *testing.T) {
	e := newEncoder(t)
	reads, want, _ := multiBlockReads(t, e, 22)
	p := newPipelineWorkers(t, e, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.referenceDecode(reads, -1)
			if err != nil {
				errs <- err
				return
			}
			for block, data := range want {
				if !bytes.Equal(res[block].Units[0].Data, data) {
					errs <- fmt.Errorf("block %d data mismatch", block)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
