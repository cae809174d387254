// Package layout defines the physical structure of DNA strands and
// encoding units in the block-storage architecture.
//
// A strand (Figure 1a, extended by Figure 4 and Section 6.3) is laid out
// as:
//
//	[fwd primer 20] [sync A] [unit index 10] [version 1] [intra 2] [payload 96] [rev primer 20]
//
// where the unit index comes from the PCR-navigable index tree, the
// version base implements the update slots of Section 5.3 (A = original
// data, C/G/T = updates 1-3), and the 2-base intra address orders the 15
// molecules of an encoding unit in software.
//
// An encoding unit (Figure 1c, Section 6.2) is a matrix of 15 molecules
// (11 data + 4 ECC): each molecule's payload is a column, and every row of
// 4-bit symbols across the 15 columns is one RS(15,11) codeword.
package layout

import (
	"errors"
	"fmt"
	"math"

	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/gf"
	"dnastore/internal/rs"
)

// ErrParse is returned when a sequence cannot be parsed as a strand.
var ErrParse = errors.New("layout: cannot parse strand")

// ErrPayloadShape is returned by UnitCodec.Decode when the payload set
// has the wrong molecule count or a payload has the wrong length.
var ErrPayloadShape = errors.New("layout: malformed unit payloads")

// Geometry fixes the field sizes of a strand.
type Geometry struct {
	StrandLen    int // total strand length in bases (paper: 150)
	PrimerLen    int // main primer length (paper: 20)
	IndexLen     int // unit index length in bases (paper: 10, sparse)
	VersionBases int // bases reserved for update versioning (paper: 1)
	IntraLen     int // intra-unit address length (paper: 2)
}

// PaperGeometry returns the wetlab configuration of Section 6.2-6.3.
func PaperGeometry() Geometry {
	return Geometry{StrandLen: 150, PrimerLen: 20, IndexLen: 10, VersionBases: 1, IntraLen: 2}
}

// syncBases is the number of synchronization bases after the forward
// primer ("One A base was added after the forward primer as a point of
// synchronization", Section 6.2).
const syncBases = 1

// Validate checks internal consistency of the geometry.
func (g Geometry) Validate() error {
	if g.StrandLen <= 0 || g.PrimerLen <= 0 || g.IndexLen < 0 || g.VersionBases < 0 || g.IntraLen <= 0 {
		return fmt.Errorf("layout: non-positive geometry field: %+v", g)
	}
	pb := g.PayloadBases()
	if pb <= 0 {
		return fmt.Errorf("layout: geometry leaves %d payload bases", pb)
	}
	if pb%4 != 0 {
		return fmt.Errorf("layout: payload bases %d not a multiple of 4", pb)
	}
	return nil
}

// PayloadBases returns the number of bases available for data in one
// strand (96 in the paper's geometry).
func (g Geometry) PayloadBases() int {
	return g.StrandLen - 2*g.PrimerLen - syncBases - g.IndexLen - g.VersionBases - g.IntraLen
}

// PayloadBytes returns the per-strand data capacity in bytes (24 in the
// paper's geometry).
func (g Geometry) PayloadBytes() int { return g.PayloadBases() / 4 }

// Strand is the logical content of one DNA molecule.
type Strand struct {
	Index   dna.Seq // unit index from the index tree (g.IndexLen bases)
	Version int     // update slot: 0 = original data, 1..3 = updates
	Intra   int     // molecule position within the encoding unit
	Payload []byte  // g.PayloadBytes() bytes of (randomized) data
}

// versionBase maps a version number to its address base. Version 0 is A,
// so original data and its updates share a prefix and differ only in the
// last base (Section 5.3's ACGTA / ACGTC / ACGTG example).
func versionBase(v int) dna.Base { return dna.Base(v) }

// MaxVersions returns the number of versions addressable by the
// geometry's version bases (4 with one base: the original + 3 updates).
func (g Geometry) MaxVersions() int {
	n := 1
	for i := 0; i < g.VersionBases; i++ {
		n *= 4
	}
	return n
}

// Assemble builds the full strand sequence from its logical fields and
// the partition's primer pair.
func (g Geometry) Assemble(fwd, rev dna.Seq, s Strand) (dna.Seq, error) {
	if len(fwd) != g.PrimerLen || len(rev) != g.PrimerLen {
		return nil, fmt.Errorf("layout: primer lengths %d/%d, want %d", len(fwd), len(rev), g.PrimerLen)
	}
	if len(s.Index) != g.IndexLen {
		return nil, fmt.Errorf("layout: index length %d, want %d", len(s.Index), g.IndexLen)
	}
	if s.Version < 0 || s.Version >= g.MaxVersions() {
		return nil, fmt.Errorf("layout: version %d outside [0, %d)", s.Version, g.MaxVersions())
	}
	maxIntra := 1 << (2 * uint(g.IntraLen))
	if s.Intra < 0 || s.Intra >= maxIntra {
		return nil, fmt.Errorf("layout: intra address %d outside [0, %d)", s.Intra, maxIntra)
	}
	if len(s.Payload) != g.PayloadBytes() {
		return nil, fmt.Errorf("layout: payload %d bytes, want %d", len(s.Payload), g.PayloadBytes())
	}
	out := make(dna.Seq, 0, g.StrandLen)
	out = append(out, fwd...)
	out = append(out, dna.A) // sync base
	out = append(out, s.Index...)
	v := s.Version
	for i := g.VersionBases - 1; i >= 0; i-- {
		out = append(out, versionBase((v>>(2*uint(i)))&3))
	}
	intra := s.Intra
	for i := g.IntraLen - 1; i >= 0; i-- {
		out = append(out, dna.Base((intra>>(2*uint(i)))&3))
	}
	out = append(out, codec.BytesToBases(s.Payload)...)
	out = append(out, rev...)
	if len(out) != g.StrandLen {
		return nil, fmt.Errorf("layout: assembled %d bases, want %d", len(out), g.StrandLen)
	}
	return out, nil
}

// Parse is the strict inverse of Assemble for exact-length sequences.
// It verifies the primers and sync base and splits the remaining fields.
// Noisy reads are first error-corrected by consensus (package trace)
// before being parsed.
func (g Geometry) Parse(seq dna.Seq, fwd, rev dna.Seq) (Strand, error) {
	var s Strand
	if len(seq) != g.StrandLen {
		return s, fmt.Errorf("%w: length %d, want %d", ErrParse, len(seq), g.StrandLen)
	}
	if !seq.HasPrefix(fwd) {
		return s, fmt.Errorf("%w: forward primer mismatch", ErrParse)
	}
	if !seq.HasSuffix(rev) {
		return s, fmt.Errorf("%w: reverse primer mismatch", ErrParse)
	}
	pos := g.PrimerLen
	if seq[pos] != dna.A {
		return s, fmt.Errorf("%w: sync base is %v", ErrParse, seq[pos])
	}
	pos += syncBases
	s.Index = seq[pos : pos+g.IndexLen].Clone()
	pos += g.IndexLen
	for i := 0; i < g.VersionBases; i++ {
		s.Version = s.Version<<2 | int(seq[pos])
		pos++
	}
	for i := 0; i < g.IntraLen; i++ {
		s.Intra = s.Intra<<2 | int(seq[pos])
		pos++
	}
	payload, err := codec.BasesToBytes(seq[pos : pos+g.PayloadBases()])
	if err != nil {
		return s, fmt.Errorf("%w: %v", ErrParse, err)
	}
	s.Payload = payload
	return s, nil
}

// ElongatedPrimer returns the forward primer elongated with the sync base
// and the given index prefix (Section 4: Figure 4). A full index yields
// the 31-base primers of the wetlab experiments (20 + 1 + 10).
func (g Geometry) ElongatedPrimer(fwd dna.Seq, indexPrefix dna.Seq) dna.Seq {
	out := make(dna.Seq, 0, len(fwd)+syncBases+len(indexPrefix))
	out = append(out, fwd...)
	out = append(out, dna.A)
	out = append(out, indexPrefix...)
	return out
}

// UnitCodec encodes fixed-size data blocks into the molecule payloads of
// one encoding unit and decodes them back, applying the Reed-Solomon
// outer code across molecules.
type UnitCodec struct {
	geom  Geometry
	code  *rs.Code
	field *gf.Field
}

// NewUnitCodec builds the paper's RS(15,11)-over-GF(16) unit codec for
// the given geometry (Section 6.2's wetlab configuration).
func NewUnitCodec(g Geometry) (*UnitCodec, error) {
	return NewUnitCodecRS(g, gf.GF16, 15, 11)
}

// NewUnitCodecRS builds a unit codec with an explicit Reed-Solomon
// configuration. With 4-bit symbols two symbols pack per payload byte;
// with 8-bit symbols each byte is one symbol, enabling RS(255, 223)
// units that spread codewords across 255 molecules — the configuration
// large-scale DNA archives use (Section 2.1.3's "tens of thousands" of
// molecules per ECC group).
func NewUnitCodecRS(g Geometry, field *gf.Field, n, k int) (*UnitCodec, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if field.SymbolBits() != 4 && field.SymbolBits() != 8 {
		return nil, fmt.Errorf("layout: unsupported symbol width %d", field.SymbolBits())
	}
	if maxIntra := 1 << (2 * uint(g.IntraLen)); n > maxIntra {
		return nil, fmt.Errorf("layout: %d molecules exceed the %d-base intra address space (%d)",
			n, g.IntraLen, maxIntra)
	}
	code, err := rs.New(field, n, k)
	if err != nil {
		return nil, err
	}
	return &UnitCodec{geom: g, code: code, field: field}, nil
}

// Molecules returns the number of molecules per encoding unit (15).
func (u *UnitCodec) Molecules() int { return u.code.N() }

// DataMolecules returns the number of data molecules per unit (11).
func (u *UnitCodec) DataMolecules() int { return u.code.K() }

// DataBytes returns the data capacity of one encoding unit in bytes
// (264 in the paper's geometry: 11 molecules x 24 bytes).
func (u *UnitCodec) DataBytes() int { return u.code.K() * u.geom.PayloadBytes() }

// Geometry returns the codec's strand geometry.
func (u *UnitCodec) Geometry() Geometry { return u.geom }

// toSymbols converts payload bytes to field symbols.
func (u *UnitCodec) toSymbols(b []byte) []byte {
	if u.field.SymbolBits() == 4 {
		return codec.BytesToNibbles(b)
	}
	return append([]byte(nil), b...)
}

// fromSymbols converts field symbols back to payload bytes.
func (u *UnitCodec) fromSymbols(s []byte) ([]byte, error) {
	if u.field.SymbolBits() == 4 {
		return codec.NibblesToBytes(s)
	}
	return append([]byte(nil), s...), nil
}

// symbolsPerMolecule returns the number of RS symbols in one payload.
func (u *UnitCodec) symbolsPerMolecule() int {
	if u.field.SymbolBits() == 4 {
		return u.geom.PayloadBytes() * 2
	}
	return u.geom.PayloadBytes()
}

// Encode maps exactly DataBytes() of (already randomized and padded)
// data to the payloads of the unit's molecules, column-major as in
// Figure 1c: molecule j holds data bytes [j*P, (j+1)*P), and the parity
// molecules hold the RS parity of each n-symbol row.
func (u *UnitCodec) Encode(data []byte) ([][]byte, error) {
	if len(data) != u.DataBytes() {
		return nil, fmt.Errorf("layout: unit data %d bytes, want %d", len(data), u.DataBytes())
	}
	perMol := u.geom.PayloadBytes()
	symPerMol := u.symbolsPerMolecule()
	n, k := u.code.N(), u.code.K()
	payloadSyms := make([][]byte, n)
	for j := 0; j < k; j++ {
		payloadSyms[j] = u.toSymbols(data[j*perMol : (j+1)*perMol])
	}
	for j := k; j < n; j++ {
		payloadSyms[j] = make([]byte, symPerMol)
	}
	row := make([]byte, k)
	for r := 0; r < symPerMol; r++ {
		for j := 0; j < k; j++ {
			row[j] = payloadSyms[j][r]
		}
		word, err := u.code.Encode(row)
		if err != nil {
			return nil, err
		}
		for j := k; j < n; j++ {
			payloadSyms[j][r] = word[j]
		}
	}
	out := make([][]byte, n)
	for j := 0; j < n; j++ {
		b, err := u.fromSymbols(payloadSyms[j])
		if err != nil {
			return nil, err
		}
		out[j] = b
	}
	return out, nil
}

// Decode reconstructs the unit's data from molecule payloads. A nil
// payload marks a lost molecule (erasure); the RS code recovers up to 4
// lost molecules, or fewer losses combined with symbol errors. The
// returned corrected count reports how many symbols were repaired.
// Errors wrap ErrPayloadShape for a misshapen payload set and
// rs.ErrTooManyErrors for an uncorrectable row.
func (u *UnitCodec) Decode(payloads [][]byte) (data []byte, corrected int, err error) {
	n, k := u.code.N(), u.code.K()
	if len(payloads) != n {
		return nil, 0, fmt.Errorf("%w: %d payloads, want %d", ErrPayloadShape, len(payloads), n)
	}
	perMol := u.geom.PayloadBytes()
	symPerMol := u.symbolsPerMolecule()
	var erasures []int
	cols := make([][]byte, n)
	for j, p := range payloads {
		switch {
		case p == nil:
			erasures = append(erasures, j)
			cols[j] = make([]byte, symPerMol)
		case len(p) != perMol:
			return nil, 0, fmt.Errorf("%w: payload %d has %d bytes, want %d", ErrPayloadShape, j, len(p), perMol)
		default:
			cols[j] = u.toSymbols(p)
		}
	}
	dataSyms := make([][]byte, k)
	for j := range dataSyms {
		dataSyms[j] = make([]byte, symPerMol)
	}
	received := make([]byte, n)
	for r := 0; r < symPerMol; r++ {
		for j := 0; j < n; j++ {
			received[j] = cols[j][r]
		}
		decoded, err := u.code.Decode(received, erasures)
		if err != nil {
			return nil, corrected, fmt.Errorf("layout: row %d: %w", r, err)
		}
		for j := 0; j < k; j++ {
			if decoded[j] != received[j] {
				corrected++
			}
			dataSyms[j][r] = decoded[j]
		}
	}
	out := make([]byte, 0, u.DataBytes())
	for j := 0; j < k; j++ {
		b, err := u.fromSymbols(dataSyms[j])
		if err != nil {
			return nil, corrected, err
		}
		out = append(out, b...)
	}
	return out, corrected, nil
}

// --- Figure 3 analytics -------------------------------------------------

// CapacityPoint is one point of the Figure 3 curves: the storage capacity
// and information density of a single partition as a function of index
// length.
type CapacityPoint struct {
	IndexLen          int
	CapacityLog2Bytes float64 // log2 of partition capacity in bytes
	BitsPerBase       float64 // information density over the whole strand
}

// Capacity computes the Figure 3 point for a partition with the given
// strand and primer lengths at index length L. When the index consumes
// the entire usable region, capacity follows the presence-bit design
// described in Section 3 (one bit per possible address).
func Capacity(strandLen, primerLen, indexLen int) (CapacityPoint, error) {
	usable := strandLen - 2*primerLen - syncBases
	if usable <= 0 {
		return CapacityPoint{}, fmt.Errorf("layout: primers leave no usable bases")
	}
	if indexLen < 0 || indexLen > usable {
		return CapacityPoint{}, fmt.Errorf("layout: index length %d outside [0, %d]", indexLen, usable)
	}
	payload := usable - indexLen
	p := CapacityPoint{IndexLen: indexLen}
	if payload > 0 {
		// 4^L addresses, each holding 2*payload bits.
		p.CapacityLog2Bytes = 2*float64(indexLen) + math.Log2(float64(payload)*2.0/8.0)
		p.BitsPerBase = 2 * float64(payload) / float64(strandLen)
	} else {
		// Presence-bit design: the existence of each of the 4^L addresses
		// encodes one bit.
		p.CapacityLog2Bytes = 2*float64(indexLen) - 3
		p.BitsPerBase = 1 / float64(strandLen)
	}
	return p, nil
}

// CapacityCurve returns Figure 3's series for index lengths 0..max for
// the given primer length.
func CapacityCurve(strandLen, primerLen int) ([]CapacityPoint, error) {
	usable := strandLen - 2*primerLen - syncBases
	if usable <= 0 {
		return nil, fmt.Errorf("layout: primers leave no usable bases")
	}
	out := make([]CapacityPoint, 0, usable+1)
	for l := 0; l <= usable; l++ {
		p, err := Capacity(strandLen, primerLen, l)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// DensityLoss returns the fractional information-density cost of
// spending extra index bases on a strand of the given length, versus a
// minimal dense index, expressed as extra bases over the strand length —
// the paper's convention (Section 4.3: 5 extra bases on 150-base strands
// is a "3% information density loss"; 0.3% on 1500-base strands).
func DensityLoss(strandLen, primerLen, denseIndexLen, sparseIndexLen int) float64 {
	return float64(sparseIndexLen-denseIndexLen) / float64(strandLen)
}

// PrimerDensityLoss returns the payload lost to lengthening both main
// primers, relative to the longer-primer payload (Section 4.3: 30-base
// primers on 150-base strands cost ~22%).
func PrimerDensityLoss(strandLen, shortPrimer, longPrimer int) float64 {
	short := float64(strandLen - 2*shortPrimer - syncBases)
	long := float64(strandLen - 2*longPrimer - syncBases)
	return (short - long) / long
}
