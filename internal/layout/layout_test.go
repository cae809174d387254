package layout

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
	"dnastore/internal/rs"
)

func testPrimers(t testing.TB) (fwd, rev dna.Seq) {
	t.Helper()
	fwd = dna.MustFromString("ACGTACGTACGTACGTACGA")
	rev = dna.MustFromString("TGCATGCATGCATGCATGCA")
	return fwd, rev
}

func randomPayload(r *rng.Source, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(r.Intn(256))
	}
	return p
}

func TestPaperGeometry(t *testing.T) {
	g := PaperGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.PayloadBases() != 96 {
		t.Errorf("payload bases %d want 96 (Section 6.2)", g.PayloadBases())
	}
	if g.PayloadBytes() != 24 {
		t.Errorf("payload bytes %d want 24", g.PayloadBytes())
	}
	if g.MaxVersions() != 4 {
		t.Errorf("max versions %d want 4", g.MaxVersions())
	}
}

func TestGeometryValidation(t *testing.T) {
	g := PaperGeometry()
	g.StrandLen = 50 // primers alone need 40, leaves negative payload
	if err := g.Validate(); !errors.Is(err, ErrGeometry) {
		t.Errorf("tiny strand: %v, want ErrGeometry", err)
	}
	g = PaperGeometry()
	g.IndexLen = 11 // payload 95, not a multiple of 4
	if err := g.Validate(); !errors.Is(err, ErrGeometry) {
		t.Errorf("non-multiple-of-4 payload: %v, want ErrGeometry", err)
	}
	g = Geometry{}
	if err := g.Validate(); !errors.Is(err, ErrGeometry) {
		t.Errorf("zero geometry: %v, want ErrGeometry", err)
	}
	// The elongated primer (primer, sync base, index) must fit
	// dna.MaxPatternLen: 43+1+20 = 64 bases validates, 44+1+20 = 65 does
	// not. Both leave 96 payload bases, so the limit is the only
	// difference.
	g = Geometry{StrandLen: 206, PrimerLen: 43, IndexLen: 20, VersionBases: 1, IntraLen: 2}
	if err := g.Validate(); err != nil {
		t.Errorf("64-base elongated primer rejected: %v", err)
	}
	g = Geometry{StrandLen: 208, PrimerLen: 44, IndexLen: 20, VersionBases: 1, IntraLen: 2}
	if err := g.Validate(); !errors.Is(err, ErrGeometry) || g.PayloadBases() != 96 {
		t.Errorf("65-base elongated primer (%d payload bases): %v, want ErrGeometry", g.PayloadBases(), err)
	}
}

func TestAssembleParseRoundTrip(t *testing.T) {
	g := PaperGeometry()
	fwd, rev := testPrimers(t)
	r := rng.New(1)
	idx := dna.MustFromString("ACGTACGTAC")
	for version := 0; version < 4; version++ {
		for intra := 0; intra < 15; intra++ {
			s := Strand{
				Index:   idx,
				Version: version,
				Intra:   intra,
				Payload: randomPayload(r, g.PayloadBytes()),
			}
			seq, err := g.Assemble(fwd, rev, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) != 150 {
				t.Fatalf("strand length %d want 150", len(seq))
			}
			got, err := g.Parse(seq, fwd, rev)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Index.Equal(s.Index) || got.Version != s.Version ||
				got.Intra != s.Intra || !bytes.Equal(got.Payload, s.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
			}
		}
	}
}

func TestVersionAddressing(t *testing.T) {
	// Section 5.3: the original object and its updates must share the full
	// index prefix and differ only in the version base, so a PCR on the
	// common prefix retrieves data and updates together.
	g := PaperGeometry()
	fwd, rev := testPrimers(t)
	r := rng.New(2)
	idx := dna.MustFromString("CAGTCAGTCA")
	var seqs []dna.Seq
	for v := 0; v < 4; v++ {
		s := Strand{Index: idx, Version: v, Intra: 0, Payload: randomPayload(r, 24)}
		seq, err := g.Assemble(fwd, rev, s)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	prefixLen := g.PrimerLen + 1 + g.IndexLen
	for v := 1; v < 4; v++ {
		if !seqs[v][:prefixLen].Equal(seqs[0][:prefixLen]) {
			t.Fatalf("version %d does not share the data prefix", v)
		}
		if seqs[v][prefixLen] == seqs[0][prefixLen] {
			t.Fatalf("version %d shares the version base with the original", v)
		}
	}
}

func TestAssembleRejectsBadFields(t *testing.T) {
	g := PaperGeometry()
	fwd, rev := testPrimers(t)
	good := Strand{
		Index:   dna.MustFromString("ACGTACGTAC"),
		Payload: make([]byte, 24),
	}
	cases := []struct {
		name   string
		mutate func(*Strand)
	}{
		{"short index", func(s *Strand) { s.Index = s.Index[:5] }},
		{"negative version", func(s *Strand) { s.Version = -1 }},
		{"version too high", func(s *Strand) { s.Version = 4 }},
		{"intra too high", func(s *Strand) { s.Intra = 16 }},
		{"short payload", func(s *Strand) { s.Payload = s.Payload[:10] }},
	}
	for _, c := range cases {
		s := good
		s.Index = good.Index.Clone()
		c.mutate(&s)
		if _, err := g.Assemble(fwd, rev, s); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := g.Assemble(fwd[:10], rev, good); err == nil {
		t.Error("short primer accepted")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	g := PaperGeometry()
	fwd, rev := testPrimers(t)
	s := Strand{Index: dna.MustFromString("ACGTACGTAC"), Payload: make([]byte, 24)}
	seq, err := g.Assemble(fwd, rev, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Parse(seq[:100], fwd, rev); err == nil {
		t.Error("short sequence parsed")
	}
	bad := seq.Clone()
	bad[0] = bad[0].Complement()
	if _, err := g.Parse(bad, fwd, rev); err == nil {
		t.Error("wrong forward primer parsed")
	}
	bad = seq.Clone()
	bad[len(bad)-1] = bad[len(bad)-1].Complement()
	if _, err := g.Parse(bad, fwd, rev); err == nil {
		t.Error("wrong reverse primer parsed")
	}
	bad = seq.Clone()
	bad[g.PrimerLen] = dna.T // sync base
	if _, err := g.Parse(bad, fwd, rev); err == nil {
		t.Error("wrong sync base parsed")
	}
}

func TestElongatedPrimer(t *testing.T) {
	g := PaperGeometry()
	fwd, _ := testPrimers(t)
	idx := dna.MustFromString("ACGTACGTAC")
	p := g.ElongatedPrimer(fwd, idx)
	// Section 6.5: elongated forward primers are 31 bases (20 + sync + 10).
	if len(p) != 31 {
		t.Fatalf("elongated primer length %d want 31", len(p))
	}
	if !p.HasPrefix(fwd) {
		t.Error("elongated primer does not start with the main primer")
	}
	if p[20] != dna.A {
		t.Error("sync base missing")
	}
	if !p.HasSuffix(idx) {
		t.Error("index suffix missing")
	}
	// Partial elongation for sequential access.
	part := g.ElongatedPrimer(fwd, idx[:4])
	if len(part) != 25 {
		t.Errorf("partially elongated length %d want 25", len(part))
	}
}

// paperCodec builds the paper's unit codec (8-byte pad, sealed) with a
// fixed whitening seed.
func paperCodec(t testing.TB) *UnitCodec {
	t.Helper()
	u, err := NewUnitCodec(PaperGeometry(), 8, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// sealedUnit seals a random block's worth of content.
func sealedUnit(r *rng.Source, u *UnitCodec) []byte {
	return u.Seal(randomPayload(r, u.BlockSize()))
}

func TestUnitCodecRoundTrip(t *testing.T) {
	u := paperCodec(t)
	if u.DataBytes() != 264 || u.BlockSize() != 256 {
		t.Fatalf("unit capacity %d/%d want 264/256 (Section 6.2)", u.DataBytes(), u.BlockSize())
	}
	r := rng.New(3)
	data := sealedUnit(r, u)
	payloads, err := u.Encode(531, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 15 {
		t.Fatalf("%d payloads", len(payloads))
	}
	for j, p := range payloads {
		if len(p) != 24 {
			t.Fatalf("payload %d has %d bytes", j, len(p))
		}
	}
	// Data molecules carry the whitened unit verbatim (systematic): the
	// zero unit's data molecules are the keystream itself.
	keystream, err := u.Encode(531, 1, make([]byte, 264))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 11; j++ {
		for i, b := range payloads[j] {
			if b^keystream[j][i] != data[j*24+i] {
				t.Fatalf("molecule %d not systematic", j)
			}
		}
	}
	// The keystream depends on the unit's block and version.
	if other, _ := u.Encode(531, 2, data); bytes.Equal(other[0], payloads[0]) {
		t.Error("versions 1 and 2 whiten alike")
	}
	got, corrected, err := u.Decode(531, 1, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 0 {
		t.Errorf("clean decode corrected %d symbols", corrected)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

// erase returns a copy of payloads with the listed molecules lost.
func erase(payloads [][]byte, lost ...int) [][]byte {
	damaged := make([][]byte, len(payloads))
	copy(damaged, payloads)
	for _, j := range lost {
		damaged[j] = nil
	}
	return damaged
}

func TestUnitCodecErasesMolecules(t *testing.T) {
	// Losing up to 4 whole molecules (anywhere) must be recoverable:
	// that is the erasure capability of RS(15,11) applied per row.
	u := paperCodec(t)
	r := rng.New(4)
	data := sealedUnit(r, u)
	payloads, _ := u.Encode(7, 0, data)
	for _, lost := range [][]int{{0}, {14}, {3, 7}, {0, 1, 2, 3}, {11, 12, 13, 14}, {2, 6, 11, 14}} {
		got, _, err := u.Decode(7, 0, erase(payloads, lost...))
		if err != nil {
			t.Fatalf("lost %v: %v", lost, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("lost %v: wrong data", lost)
		}
	}
	// Five losses exceed the budget.
	if _, _, err := u.Decode(7, 0, erase(payloads, 0, 1, 2, 3, 4)); !errors.Is(err, rs.ErrTooManyErrors) {
		t.Errorf("five erasures: %v, want rs.ErrTooManyErrors", err)
	}
	// Without a seal one check symbol must remain: three erasures
	// decode, four are refused.
	bare, err := NewUnitCodec(PaperGeometry(), 0, 0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	if bare.MaxErasures() != 3 || u.MaxErasures() != 4 {
		t.Fatalf("erasure budgets %d unsealed, %d sealed; want 3, 4", bare.MaxErasures(), u.MaxErasures())
	}
	data = randomPayload(r, 264)
	payloads, _ = bare.Encode(7, 0, data)
	if got, _, err := bare.Decode(7, 0, erase(payloads, 2, 6, 11)); err != nil || !bytes.Equal(got, data) {
		t.Errorf("unsealed, three erasures: %v", err)
	}
	if _, _, err := bare.Decode(7, 0, erase(payloads, 2, 6, 11, 14)); !errors.Is(err, rs.ErrTooManyErrors) {
		t.Errorf("unsealed, four erasures: %v, want rs.ErrTooManyErrors", err)
	}
}

func TestUnitCodecCorrectsSymbolErrors(t *testing.T) {
	u := paperCodec(t)
	r := rng.New(5)
	data := sealedUnit(r, u)
	payloads, _ := u.Encode(7, 0, data)
	damaged := make([][]byte, 15)
	for j := range payloads {
		damaged[j] = append([]byte(nil), payloads[j]...)
	}
	// Corrupt 2 different molecules at the same row (2 symbol errors in
	// one codeword: exactly the RS(15,11) error capability) plus scattered
	// single errors elsewhere.
	damaged[2][0] ^= 0xf0
	damaged[9][0] ^= 0x0f
	damaged[5][10] ^= 0x30
	got, corrected, err := u.Decode(7, 0, damaged)
	if err != nil {
		t.Fatal(err)
	}
	if corrected == 0 {
		t.Error("no corrections reported")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong correction")
	}
}

func TestUnitCodecMixedErasureAndError(t *testing.T) {
	u := paperCodec(t)
	r := rng.New(6)
	data := sealedUnit(r, u)
	payloads, _ := u.Encode(7, 0, data)
	damaged := make([][]byte, 15)
	for j := range payloads {
		damaged[j] = append([]byte(nil), payloads[j]...)
	}
	damaged[0] = nil       // 1 erasure
	damaged[7][3] ^= 0x11  // errors in another molecule
	damaged[12][5] ^= 0x40 // and in a parity molecule
	got, corrected, err := u.Decode(7, 0, damaged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong mixed correction")
	}
	// The corrected count covers data symbols only: the erased
	// molecule's non-zero symbols (an erasure reads as 0) and the two
	// symbols of molecule 7.
	want := 2
	for _, b := range payloads[0] {
		want += min(int(b>>4), 1) + min(int(b&15), 1)
	}
	if corrected != want {
		t.Errorf("corrected %d symbols, want %d", corrected, want)
	}
}

// TestUnitCodecDecodeAllocs pins a warm decode of a unit with one
// erased molecule and one symbol error to the returned unit and the
// whitening keystream's setup.
func TestUnitCodecDecodeAllocs(t *testing.T) {
	u := paperCodec(t)
	data := sealedUnit(rng.New(7), u)
	payloads, _ := u.Encode(7, 0, data)
	damaged := erase(payloads, 4)
	damaged[9] = append([]byte(nil), payloads[9]...)
	damaged[9][11] ^= 0x06
	if a := testing.AllocsPerRun(50, func() {
		if got, _, err := u.Decode(7, 0, damaged); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("decode: %v", err)
		}
	}); a > 3 {
		t.Errorf("UnitCodec.Decode: %v allocations, want at most 3", a)
	}
}

func TestUnitCodecRejectsBadInput(t *testing.T) {
	u := paperCodec(t)
	if _, err := u.Encode(0, 0, make([]byte, 100)); err == nil {
		t.Error("short unit data accepted")
	}
	if _, _, err := u.Decode(0, 0, make([][]byte, 10)); !errors.Is(err, ErrPayloadShape) {
		t.Errorf("wrong payload count: %v, want ErrPayloadShape", err)
	}
	payloads := make([][]byte, 15)
	for j := range payloads {
		payloads[j] = make([]byte, 24)
	}
	payloads[3] = make([]byte, 10)
	if _, _, err := u.Decode(0, 0, payloads); !errors.Is(err, ErrPayloadShape) {
		t.Errorf("short payload: %v, want ErrPayloadShape", err)
	}
	for _, pad := range []int{-1, 264} {
		if _, err := NewUnitCodec(PaperGeometry(), pad, 1); err == nil {
			t.Errorf("pad %d accepted", pad)
		}
	}
	g := PaperGeometry()
	g.IntraLen, g.IndexLen = 1, 11 // 4 intra addresses for 15 molecules
	if _, err := NewUnitCodec(g, 8, 1); !errors.Is(err, ErrGeometry) {
		t.Errorf("1-base intra address: %v, want ErrGeometry", err)
	}
}

func TestCapacityCurveShape(t *testing.T) {
	// Figure 3: capacity rises monotonically with index length toward
	// ~2^215-217 bytes; density falls from ~1.45 bits/base to ~1/150.
	curve, err := CapacityCurve(150, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 110 { // L = 0..109
		t.Fatalf("curve has %d points", len(curve))
	}
	first, last := curve[0], curve[len(curve)-1]
	if math.Abs(first.BitsPerBase-2.0*109/150) > 1e-9 {
		t.Errorf("L=0 density %v want %v", first.BitsPerBase, 2.0*109/150)
	}
	if last.BitsPerBase > 0.01 {
		t.Errorf("L=max density %v, want ~1/150", last.BitsPerBase)
	}
	if last.CapacityLog2Bytes < 210 || last.CapacityLog2Bytes > 220 {
		t.Errorf("max capacity 2^%.0f B, paper says ~2^217", last.CapacityLog2Bytes)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].CapacityLog2Bytes < curve[i-1].CapacityLog2Bytes {
			t.Fatalf("capacity not monotone at L=%d", i)
		}
		if curve[i].BitsPerBase > curve[i-1].BitsPerBase {
			t.Fatalf("density not monotone at L=%d", i)
		}
	}
	// Primer length 30 reduces both capacity and density at every L.
	curve30, err := CapacityCurve(150, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := range curve30 {
		if curve30[i].CapacityLog2Bytes > curve[i].CapacityLog2Bytes {
			t.Fatalf("30-base primers should not raise capacity at L=%d", i)
		}
	}
	if _, err := CapacityCurve(40, 20); err == nil {
		t.Error("no usable bases should fail")
	}
	if _, err := Capacity(150, 20, 200); err == nil {
		t.Error("oversized index should fail")
	}
}

func TestDensityLoss(t *testing.T) {
	// Section 4.3: 10-base instead of 5-base index costs ~3% on 150-base
	// strands and ~0.3% on 1500-base strands; 30-base primers cost ~22%.
	loss150 := DensityLoss(150, 20, 5, 10)
	if loss150 < 0.02 || loss150 > 0.05 {
		t.Errorf("density loss on 150-base strands %.3f, paper says ~3%%", loss150)
	}
	loss1500 := DensityLoss(1500, 20, 5, 10)
	if loss1500 > 0.005 {
		t.Errorf("density loss on 1500-base strands %.4f, paper says ~0.3%%", loss1500)
	}
	if loss150 <= loss1500 {
		t.Error("loss should shrink with strand length")
	}
	primer30 := PrimerDensityLoss(150, 20, 30)
	if primer30 < 0.18 || primer30 > 0.26 {
		t.Errorf("30-base primer loss %.3f, paper says ~22%%", primer30)
	}
	primer30Long := PrimerDensityLoss(1500, 20, 30)
	if primer30Long > 0.03 {
		t.Errorf("30-base primer loss on 1500-base strands %.4f, paper says ~2.2%%", primer30Long)
	}
}

func BenchmarkUnitEncode(b *testing.B) {
	u := paperCodec(b)
	data := u.Seal(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := u.Encode(7, 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnitDecodeClean(b *testing.B) {
	u := paperCodec(b)
	payloads, _ := u.Encode(7, 0, u.Seal(nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := u.Decode(7, 0, payloads); err != nil {
			b.Fatal(err)
		}
	}
}
