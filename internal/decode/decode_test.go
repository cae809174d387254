package decode

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/indextree"
	"dnastore/internal/layout"
	"dnastore/internal/rng"
)

var (
	fwdP = dna.MustFromString("ACGTACGTACGTACGTACGA")
	revP = dna.MustFromString("TGCATGCATGCATGCATGCA")
)

// encoder is a minimal write path mirroring what package blockstore does:
// randomize, unit-encode, assemble strands.
type encoder struct {
	g    layout.Geometry
	unit *layout.UnitCodec
	tree *indextree.Tree
	rand *codec.Randomizer
}

func newEncoder(t testing.TB) *encoder {
	t.Helper()
	g := layout.PaperGeometry()
	unit, err := layout.NewUnitCodec(g)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := indextree.New(5, 777)
	if err != nil {
		t.Fatal(err)
	}
	return &encoder{g: g, unit: unit, tree: tree, rand: codec.NewRandomizer(42)}
}

// encodeUnit produces the 15 strand sequences of one (block, version).
func (e *encoder) encodeUnit(t testing.TB, block, version int, data []byte) []dna.Seq {
	t.Helper()
	if len(data) != e.unit.DataBytes() {
		t.Fatalf("unit data %d bytes", len(data))
	}
	white := e.rand.Derive(UnitSeed(block, version)).Apply(data)
	payloads, err := e.unit.Encode(white)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := e.tree.Encode(block)
	if err != nil {
		t.Fatal(err)
	}
	var out []dna.Seq
	for intra, p := range payloads {
		seq, err := e.g.Assemble(fwdP, revP, layout.Strand{
			Index: idx, Version: version, Intra: intra, Payload: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, seq)
	}
	return out
}

func unitData(r *rng.Source, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(r.Intn(256))
	}
	return d
}

// reads generates coverage noisy reads per strand.
func makeReads(r *rng.Source, strands []dna.Seq, coverage int, rates channel.Rates) []dna.Seq {
	var out []dna.Seq
	for _, s := range strands {
		for i := 0; i < coverage; i++ {
			out = append(out, channel.Corrupt(r, s, rates))
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newPipeline(t testing.TB, e *encoder) *Pipeline {
	t.Helper()
	p, err := New(DefaultConfig(), e.tree, fwdP, revP, e.rand)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	e := newEncoder(t)
	if _, err := New(DefaultConfig(), nil, fwdP, revP, e.rand); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := New(DefaultConfig(), e.tree, fwdP[:5], revP, e.rand); err == nil {
		t.Error("short primer accepted")
	}
	shallow := indextree.MustNew(3, 1) // index length 6 != geometry's 10
	if _, err := New(DefaultConfig(), shallow, fwdP, revP, e.rand); err == nil {
		t.Error("mismatched tree depth accepted")
	}
	cfg := DefaultConfig()
	cfg.Geometry.StrandLen = 10
	if _, err := New(cfg, e.tree, fwdP, revP, e.rand); err == nil {
		t.Error("invalid geometry accepted")
	}
	cfg = DefaultConfig()
	cfg.MaxPrimerDist = -1
	if _, err := New(cfg, e.tree, fwdP, revP, e.rand); !errors.Is(err, ErrConfig) {
		t.Errorf("negative MaxPrimerDist: %v, want ErrConfig", err)
	}
	cfg = DefaultConfig()
	cfg.MaxIndexDist = -1
	if _, err := New(cfg, e.tree, fwdP, revP, e.rand); !errors.Is(err, ErrConfig) {
		t.Errorf("negative MaxIndexDist: %v, want ErrConfig", err)
	}
}

func TestDecodeSingleBlockClean(t *testing.T) {
	e := newEncoder(t)
	r := rng.New(1)
	data := unitData(r, 264)
	strands := e.encodeUnit(t, 531, 0, data)
	reads := makeReads(r, strands, 8, channel.Noiseless())
	p := newPipeline(t, e)
	res, err := p.referenceBlock(reads, 531)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Versions[0]
	if !ok {
		t.Fatal("version 0 missing")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded data mismatch")
	}
	if res.Corrected != 0 {
		t.Errorf("clean decode corrected %d symbols", res.Corrected)
	}
}

func TestDecodeUnderIlluminaNoise(t *testing.T) {
	e := newEncoder(t)
	r := rng.New(2)
	data := unitData(r, 264)
	strands := e.encodeUnit(t, 144, 0, data)
	reads := makeReads(r, strands, 10, channel.Illumina())
	p := newPipeline(t, e)
	res, err := p.referenceBlock(reads, 144)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Versions[0], data) {
		t.Fatal("decoded data mismatch under noise")
	}
}

func TestDecodeBlockWithUpdateVersions(t *testing.T) {
	// Section 5.3: data and updates share the index; one retrieval must
	// return both versions.
	e := newEncoder(t)
	r := rng.New(3)
	orig := unitData(r, 264)
	upd := unitData(r, 264)
	strands := append(e.encodeUnit(t, 531, 0, orig), e.encodeUnit(t, 531, 1, upd)...)
	reads := makeReads(r, strands, 9, channel.Illumina())
	p := newPipeline(t, e)
	res, err := p.referenceBlock(reads, 531)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Versions[0], orig) {
		t.Error("original version mismatch")
	}
	if !bytes.Equal(res.Versions[1], upd) {
		t.Error("update version mismatch")
	}
}

func TestDecodeSurvivesLostMolecules(t *testing.T) {
	// Up to 4 of 15 molecules can vanish entirely (erasures).
	e := newEncoder(t)
	r := rng.New(4)
	data := unitData(r, 264)
	strands := e.encodeUnit(t, 7, 0, data)
	strands = append(strands[:3], strands[3+4:]...) // drop molecules 3-6
	reads := makeReads(r, strands, 10, channel.Illumina())
	p := newPipeline(t, e)
	res, err := p.referenceBlock(reads, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Versions[0], data) {
		t.Fatal("erasure recovery failed")
	}
}

func TestDecodeFailsBeyondErasureBudget(t *testing.T) {
	e := newEncoder(t)
	r := rng.New(5)
	data := unitData(r, 264)
	strands := e.encodeUnit(t, 7, 0, data)
	reads := makeReads(r, strands[:10], 10, channel.Illumina()) // 5 molecules lost
	p := newPipeline(t, e)
	if _, err := p.referenceBlock(reads, 7); !errors.Is(err, ErrDecode) {
		t.Errorf("expected ErrDecode, got %v", err)
	}
}

func TestDecodeAllMultipleBlocks(t *testing.T) {
	e := newEncoder(t)
	r := rng.New(6)
	want := map[int][]byte{}
	var strands []dna.Seq
	for _, block := range []int{3, 144, 531, 1000} {
		data := unitData(r, 264)
		want[block] = data
		strands = append(strands, e.encodeUnit(t, block, 0, data)...)
	}
	reads := makeReads(r, strands, 8, channel.Illumina())
	p := newPipeline(t, e)
	results, err := p.referenceDecode(reads, -1)
	if err != nil {
		t.Fatal(err)
	}
	for block, data := range want {
		res, ok := results[block]
		if !ok {
			t.Errorf("block %d missing", block)
			continue
		}
		if !bytes.Equal(res.Versions[0], data) {
			t.Errorf("block %d data mismatch", block)
		}
	}
}

func TestDecodeIgnoresForeignReads(t *testing.T) {
	// Reads without the partition primers (other files in the tube, or
	// reads of misprimed products from other partitions) are dropped at
	// the trim step.
	e := newEncoder(t)
	r := rng.New(7)
	data := unitData(r, 264)
	strands := e.encodeUnit(t, 10, 0, data)
	reads := makeReads(r, strands, 8, channel.Illumina())
	// Inject garbage reads.
	for i := 0; i < 100; i++ {
		g := make(dna.Seq, 150)
		for j := range g {
			g[j] = dna.Base(r.Intn(4))
		}
		reads = append(reads, g)
	}
	p := newPipeline(t, e)
	res, err := p.referenceBlock(reads, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Versions[0], data) {
		t.Fatal("foreign reads corrupted the decode")
	}
}

func TestDecodeNoUsableReads(t *testing.T) {
	p := newPipeline(t, newEncoder(t))
	r := rng.New(8)
	var garbage []dna.Seq
	for i := 0; i < 50; i++ {
		g := make(dna.Seq, 150)
		for j := range g {
			g[j] = dna.Base(r.Intn(4))
		}
		garbage = append(garbage, g)
	}
	if _, err := p.referenceDecode(garbage, -1); !errors.Is(err, ErrDecode) {
		t.Errorf("expected ErrDecode, got %v", err)
	}
}

func TestDecodeMisprimedImpostor(t *testing.T) {
	// Section 8.1: a misprimed strand carries the target's index but a
	// foreign payload. With the true strand present at higher coverage,
	// the decoder must keep the true one (first, from the larger
	// cluster); and even when the impostor wins a slot, candidate
	// recursion or RS correction must recover the data.
	e := newEncoder(t)
	r := rng.New(9)
	data := unitData(r, 264)
	strands := e.encodeUnit(t, 531, 0, data)
	// Impostor: the intra-0 strand with the payload of another block.
	foreign := unitData(r, 264)
	foreignStrands := e.encodeUnit(t, 531, 0, foreign)
	impostor := foreignStrands[0]
	reads := makeReads(r, strands, 10, channel.Illumina())
	reads = append(reads, makeReads(r, []dna.Seq{impostor}, 4, channel.Illumina())...)
	p := newPipeline(t, e)
	res, err := p.referenceBlock(reads, 531)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Versions[0], data) {
		t.Fatal("impostor strand corrupted the decode")
	}
}

func TestDecodeFewReadsLikePaper(t *testing.T) {
	// Section 8: "With just 225 sequenced reads, we successfully decoded
	// both the original block and the updated block". 30 strands at
	// ~7.5x coverage.
	e := newEncoder(t)
	r := rng.New(10)
	orig := unitData(r, 264)
	upd := unitData(r, 264)
	strands := append(e.encodeUnit(t, 531, 0, orig), e.encodeUnit(t, 531, 1, upd)...)
	var reads []dna.Seq
	for i := 0; i < 225; i++ {
		s := strands[r.Intn(len(strands))]
		reads = append(reads, channel.Corrupt(r, s, channel.Illumina()))
	}
	p := newPipeline(t, e)
	res, err := p.referenceBlock(reads, 531)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Versions[0], orig) || !bytes.Equal(res.Versions[1], upd) {
		t.Fatal("225 reads failed to decode both versions")
	}
}

// BenchmarkDecodeClusters times the decode back half alone — trace
// reconstruction, address placement and RS — on one 15-strand unit at
// depth 20, pre-clustered by source strand the way the streaming
// engine hands its final state to DecodeClusters.
func BenchmarkDecodeClusters(b *testing.B) {
	e := newEncoder(b)
	r := rng.New(13)
	strands := e.encodeUnit(b, 531, 0, unitData(r, e.unit.DataBytes()))
	p := newPipeline(b, e)
	var kept []dna.Seq
	var clusters [][]int
	for _, s := range strands {
		var members []int
		for i := 0; i < 20; i++ {
			if read := channel.Corrupt(r, s, channel.Illumina()); p.Keep(read) {
				members = append(members, len(kept))
				kept = append(kept, read)
			}
		}
		clusters = append(clusters, members)
	}
	sort.SliceStable(clusters, func(i, j int) bool { return len(clusters[i]) > len(clusters[j]) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DecodeClusters(kept, clusters, 531); err != nil {
			b.Fatal(err)
		}
	}
}
